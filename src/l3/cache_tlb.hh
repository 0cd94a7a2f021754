/**
 * @file
 * CacheTlb: a Victima-style L3 TLB resident in last-level-cache lines.
 *
 * Sits behind the L2 page/range TLBs and ahead of the page walker.
 * Translations are parked in LLC lines (ptesPerLine PTEs per line), so
 * every probe and fill pays an access to the reserved way partition
 * (CacheCapacityModel) and the tier's reserved lines displace modeled
 * data capacity.
 *
 * The tier holds 4 KB-granule translations only — the page-walk output
 * the paper's 4K-heavy organizations are reach-bound on. Larger pages
 * (THP 2 MB, 1 GB) already multiply reach by 512x per level and bypass
 * the tier.
 *
 * Two insertion policies:
 *  - WalkFill: every completed page walk parks its translation;
 *  - PtePromote: park only during L2-TLB-miss streaks (>= promoteStreak
 *    consecutive L2 misses), so one-shot walks do not pollute the LLC.
 */

#ifndef EAT_L3_CACHE_TLB_HH
#define EAT_L3_CACHE_TLB_HH

#include <cstdint>

#include "base/types.hh"
#include "l3/cache_capacity_model.hh"
#include "l3/l3_config.hh"
#include "tlb/set_assoc_tlb.hh"

namespace eat::energy
{
class CactiLite;
}

namespace eat::l3
{

/** Cache-resident L3 TLB (see file comment). */
class CacheTlb
{
  public:
    CacheTlb(const CacheTlbConfig &cfg, const energy::CactiLite &cacti);

    /** Probe the tier for the 4 KB translation of @p vaddr. Every call
     *  is one L2-TLB miss, which is what the PtePromote streak counts. */
    tlb::TlbLookupResult lookup(Addr vaddr, tlb::Asid asid);

    /** Park a walked 4 KB translation (caller applies the insertion
     *  policy via admitOnWalk() first).
     *  @return true when a live entry was evicted. */
    bool fill(const tlb::TlbEntry &entry);

    /** Does the insertion policy admit the translation the walk just
     *  produced, given the current L2-miss streak? */
    bool
    admitOnWalk() const
    {
        return cfg_.policy == L3InsertPolicy::WalkFill ||
               l2MissStreak_ >= cfg_.promoteStreak;
    }

    /** An L2 TLB hit ends the miss streak PtePromote is watching. */
    void noteL2Hit() { l2MissStreak_ = 0; }

    void invalidateAll();
    unsigned invalidateRange(Addr vbase, Addr vlimit, tlb::Asid asid);

    /** Per-access LLC energy + reserved-share leakage. */
    const energy::EnergyCoefficients &
    coefficients() const
    {
        return capacity_.accessCoefficients();
    }

    const CacheCapacityModel &capacity() const { return capacity_; }

    std::uint64_t hits() const { return storage_.hits(); }
    std::uint64_t misses() const { return storage_.misses(); }
    std::uint64_t fills() const { return storage_.fills(); }

    /** Live entries, counted on demand (O(entries)). */
    unsigned validCount() const { return storage_.validCount(); }

  private:
    CacheTlbConfig cfg_;
    CacheCapacityModel capacity_;
    tlb::SetAssocTlb storage_;
    unsigned l2MissStreak_ = 0;
};

} // namespace eat::l3

#endif // EAT_L3_CACHE_TLB_HH
