#include "l3/dram_tlb.hh"

#include "base/logging.hh"
#include "energy/cacti_lite.hh"
#include "vm/page_size.hh"

namespace eat::l3
{

DramTlb::DramTlb(const DramTlbConfig &cfg, const energy::CactiLite &cacti)
    : cfg_(cfg),
      storage_("DRAM TLB", cfg.entries, cfg.ways,
               vm::pageShift(vm::PageSize::Size4K)),
      tagCache_(cfg.tagCacheEntries)
{
    eat_assert(isPowerOfTwo(cfg_.tagCacheEntries),
               "tag-cache entry count must be a power of two");
    tagCoeff_ = cacti.estimate(energy::StructClass::L2Tlb4K,
                               cfg_.tagCacheEntries, 1);
    dramCoeff_.read = cfg_.dramReadPj;
    dramCoeff_.write = cfg_.dramWritePj;
    // The DRAM array carries no SRAM leakage term; mirror the tag
    // cache's so the meter's gated (index 0) and full (last index)
    // leakage lookups both land on the tier's real leakage.
    dramCoeff_.leakage = tagCoeff_.leakage;
}

DramProbeResult
DramTlb::probe(Addr vaddr, tlb::Asid asid)
{
    DramProbeResult r;
    const unsigned set = setOf(vaddr);
    TagSlot &slot = slotOf(set);
    r.tagCacheHit = slot.gen == generation_ && slot.set == set;

    if (r.tagCacheHit && !storage_.probe(vaddr, asid)) {
        // The cached tags prove the translation absent: a known miss
        // with the DRAM array never touched.
        storage_.noteMiss();
        return r;
    }

    // Either the tags are cold (DRAM must be read to learn them) or
    // they promise a hit (DRAM must be read for the translation).
    r.dramAccessed = true;
    ++dramAccesses_;
    const tlb::TlbLookupResult res = storage_.lookup(vaddr, asid);
    r.hit = res.hit;
    r.entry = res.entry;
    // The DRAM read brought the set's tags past the SRAM cache.
    slot = TagSlot{generation_, set};
    return r;
}

bool
DramTlb::fill(const tlb::TlbEntry &entry)
{
    eat_assert(entry.size == vm::PageSize::Size4K,
               "the in-DRAM TLB holds 4KB translations only");
    const bool evicted = storage_.fill(entry);
    const unsigned set = setOf(entry.vbase);
    slotOf(set) = TagSlot{generation_, set};
    return evicted;
}

void
DramTlb::invalidateAll()
{
    storage_.invalidateAll();
    ++generation_;
}

unsigned
DramTlb::invalidateRange(Addr vbase, Addr vlimit, tlb::Asid asid)
{
    const unsigned n = storage_.invalidateRange(vbase, vlimit, asid);
    if (n > 0)
        ++generation_;
    return n;
}

} // namespace eat::l3
