#include "l3/cache_tlb.hh"

#include "base/logging.hh"
#include "vm/page_size.hh"

namespace eat::l3
{

CacheTlb::CacheTlb(const CacheTlbConfig &cfg,
                   const energy::CactiLite &cacti)
    : cfg_(cfg),
      capacity_(cfg.llc, cacti,
                (cfg.entries + cfg.ptesPerLine - 1) / cfg.ptesPerLine),
      storage_("L3-cache TLB", cfg.entries, cfg.ways,
               vm::pageShift(vm::PageSize::Size4K))
{
    eat_assert(cfg_.ptesPerLine > 0, "ptesPerLine must be nonzero");
}

tlb::TlbLookupResult
CacheTlb::lookup(Addr vaddr, tlb::Asid asid)
{
    ++l2MissStreak_;
    return storage_.lookup(vaddr, asid);
}

bool
CacheTlb::fill(const tlb::TlbEntry &entry)
{
    eat_assert(entry.size == vm::PageSize::Size4K,
               "the cache-resident TLB holds 4KB translations only");
    return storage_.fill(entry);
}

void
CacheTlb::invalidateAll()
{
    storage_.invalidateAll();
}

unsigned
CacheTlb::invalidateRange(Addr vbase, Addr vlimit, tlb::Asid asid)
{
    return storage_.invalidateRange(vbase, vlimit, asid);
}

} // namespace eat::l3
