/**
 * @file
 * DramTlb: a large set-associative TLB held in (die-stacked) DRAM,
 * fronted by a small direct-mapped SRAM tag cache.
 *
 * DRAM capacity makes the tier's reach nearly unbounded, but every
 * DRAM touch costs ~a page-walk memory reference in energy and tens of
 * cycles. The tag cache caches the tag state of recently touched DRAM
 * TLB *sets*, so a probe that the tag cache can prove absent skips the
 * DRAM access entirely — the common case for workloads whose misses
 * cluster in a few hot sets.
 *
 * Like CacheTlb, the tier holds 4 KB-granule translations only.
 */

#ifndef EAT_L3_DRAM_TLB_HH
#define EAT_L3_DRAM_TLB_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "energy/coefficients.hh"
#include "l3/l3_config.hh"
#include "tlb/set_assoc_tlb.hh"

namespace eat::energy
{
class CactiLite;
}

namespace eat::l3
{

/** What one DramTlb probe did, so the MMU can charge latency/energy
 *  for exactly the stages that were exercised. */
struct DramProbeResult
{
    bool hit = false;         ///< translation found
    bool tagCacheHit = false; ///< SRAM tag cache knew the set's tags
    bool dramAccessed = false;///< the DRAM array was actually touched
    tlb::TlbEntry entry{};    ///< valid iff hit
};

/** In-DRAM L3 TLB with an SRAM tag cache (see file comment). */
class DramTlb
{
  public:
    DramTlb(const DramTlbConfig &cfg, const energy::CactiLite &cacti);

    /** Probe for the 4 KB translation of @p vaddr. The tag cache is
     *  consulted first; DRAM is touched only when it must be. */
    DramProbeResult probe(Addr vaddr, tlb::Asid asid);

    /** Park a walked 4 KB translation in DRAM (the write also warms
     *  the set's tag-cache slot). @return true when a live entry was
     *  evicted. */
    bool fill(const tlb::TlbEntry &entry);

    void invalidateAll();
    unsigned invalidateRange(Addr vbase, Addr vlimit, tlb::Asid asid);

    /** SRAM tag-cache probe energy (and the tier's only leakage). */
    const energy::EnergyCoefficients &
    tagCoefficients() const
    {
        return tagCoeff_;
    }

    /** Per-access DRAM array energy; leakage mirrors the tag cache so
     *  the meter's gated and full leakage views agree. */
    const energy::EnergyCoefficients &
    dramCoefficients() const
    {
        return dramCoeff_;
    }

    std::uint64_t hits() const { return storage_.hits(); }
    std::uint64_t misses() const { return storage_.misses(); }
    std::uint64_t fills() const { return storage_.fills(); }
    std::uint64_t tagHits() const { return tagHits_; }
    std::uint64_t tagMisses() const { return tagMisses_; }
    std::uint64_t dramAccesses() const { return dramAccesses_; }

  private:
    /** One tag-cache slot: the DRAM-TLB set whose tags it caches,
     *  stamped with the invalidation generation it was filled under. */
    struct TagSlot
    {
        std::uint64_t gen = 0; ///< 0 = never filled (generation_ >= 1)
        unsigned set = 0;
    };

    unsigned
    setOf(Addr vaddr) const
    {
        return static_cast<unsigned>((vaddr >> storage_.shift()) &
                                     (storage_.sets() - 1));
    }

    TagSlot &slotOf(unsigned set)
    {
        return tagCache_[set & (cfg_.tagCacheEntries - 1)];
    }

    DramTlbConfig cfg_;
    tlb::SetAssocTlb storage_;
    std::vector<TagSlot> tagCache_;
    /** Bumping this invalidates every tag-cache slot at once — any
     *  invalidation may have changed DRAM tag state under them. */
    std::uint64_t generation_ = 1;

    energy::EnergyCoefficients tagCoeff_{};
    energy::EnergyCoefficients dramCoeff_{};

    std::uint64_t tagHits_ = 0;
    std::uint64_t tagMisses_ = 0;
    std::uint64_t dramAccesses_ = 0;
};

} // namespace eat::l3

#endif // EAT_L3_DRAM_TLB_HH
