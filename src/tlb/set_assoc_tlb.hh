/**
 * @file
 * Set-associative TLB with true LRU replacement and way-disabling.
 *
 * This single structure models the per-page-size L1 TLBs, the L2 TLB,
 * the MMU paging-structure caches (with a non-page shift), the mixed
 * 4KB/2MB TLBs of TLB_PP (per-lookup index shift), and — with
 * ways == entries — fully associative TLBs.
 *
 * Two features exist specifically for the Lite mechanism:
 *
 *  - a lookup that asks for it reports the hit's LRU *distance* among
 *    the active ways (0 = LRU position, activeWays-1 = MRU), feeding
 *    the Figure-6 lru-distance-counters; only the Mmu's L1 page-TLB
 *    probes ask, and only with Lite attached, so no other lookup pays
 *    for the scan;
 *  - setActiveWays() disables/enables physical ways in powers of two;
 *    disabling invalidates the victims (TLBs hold no dirty data), and
 *    lookups search only active ways, which is what saves energy.
 *
 * Storage is structure-of-arrays: the per-slot fields live in flat
 * parallel arrays laid out set-major (slot index = set * ways + way).
 * Validity, tag and ASID are fused into one 64-bit key per slot, so
 * the probe makes one compare per active way, folded into a branchless
 * hit mask. While every fill has used the TLB's own shift, the probe
 * builds its key once per lookup; a TLB that has held another page
 * size (TLB_PP's mixed TLBs, the combined L1) builds it per way from
 * the slot's shift. The distance and victim scans run over the flat
 * stamp array.
 */

#ifndef EAT_TLB_SET_ASSOC_TLB_HH
#define EAT_TLB_SET_ASSOC_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "tlb/tlb_entry.hh"

namespace eat::tlb
{

/** The outcome of one TLB lookup. */
struct TlbLookupResult
{
    bool hit = false;
    /** LRU distance of the hit among active ways. Set only on a hit
     *  of a lookup that asked for it (withDistance); 0 otherwise. */
    unsigned lruDistance = 0;
    TlbEntry entry{};
};

/** A set-associative TLB (see file comment for the roles it plays). */
class SetAssocTlb
{
  public:
    /**
     * @param name for reports and error messages.
     * @param entries total entry count (sets * ways).
     * @param ways associativity; ways == entries gives full
     *             associativity (one set).
     * @param shift log2 of the region one entry covers; also selects
     *              the index bits (index = (vaddr >> shift) & (sets-1)).
     */
    SetAssocTlb(std::string name, unsigned entries, unsigned ways,
                unsigned shift);

    /** Look up @p vaddr (LRU updated on hit), indexing with @p shift.
     *  The tag match requires @p asid equality; asid 0 (the default)
     *  reproduces the untagged single-core behavior. @p withDistance
     *  asks for the hit's LRU distance (TlbLookupResult::lruDistance). */
    TlbLookupResult
    lookup(Addr vaddr, Asid asid = 0, bool withDistance = false)
    {
        return lookupWithShift(vaddr, shift_, asid, withDistance);
    }

    /**
     * Mixed-TLB lookup (TLB_PP): index with @p idxShift (the predicted
     * page size's shift); the tag match still uses each entry's own
     * covered region (and ASID).
     */
    TlbLookupResult lookupWithShift(Addr vaddr, unsigned idxShift,
                                    Asid asid = 0,
                                    bool withDistance = false);

    /** State-preserving hit test (no LRU update, no counters). */
    bool probe(Addr vaddr, Asid asid = 0) const;

    /** Install @p entry (its own shift selects the set, its own asid
     *  tags it). Replaces LRU.
     *  @return true when a live entry was evicted (LRU replacement, as
     *  opposed to an in-place refill or an invalid slot). */
    bool fill(const TlbEntry &entry);

    /** Invalidate everything (all ways, active or not). */
    void invalidateAll();

    /**
     * Shootdown receiver: invalidate entries tagged @p asid whose
     * covered region overlaps [@p vbase, @p vlimit). Disabled ways are
     * scanned too — a remap must never leave a stale translation that a
     * later way re-enable could expose.
     * @return number of entries invalidated.
     */
    unsigned invalidateRange(Addr vbase, Addr vlimit, Asid asid);

    /**
     * Way-disabling / re-enabling. @p w must be a power of two in
     * [1, ways]. Shrinking invalidates the entries in disabled ways;
     * growing exposes empty (previously invalidated) ways.
     */
    void setActiveWays(unsigned w);

    const std::string &name() const { return name_; }
    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    unsigned activeWays() const { return activeWays_; }
    /** floorLog2(activeWays()), cached: it indexes the energy
     *  coefficient tables on every charge, so it must not be
     *  recomputed per access. */
    unsigned logActiveWays() const { return logActiveWays_; }
    unsigned entries() const { return sets_ * ways_; }
    unsigned activeEntries() const { return sets_ * activeWays_; }
    unsigned shift() const { return shift_; }
    bool fullyAssociative() const { return sets_ == 1; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t resizes() const { return resizes_; }

    /** Lookups that hit an entry whose PPN differs from the value it
     *  was filled with (a consumed ppn-flip). */
    std::uint64_t ppnFlipsConsumed() const { return ppnFlipsConsumed_; }

    /** Number of currently valid entries (for tests). */
    unsigned validCount() const;

    /** Valid entries sitting in disabled ways (must be 0; a nonzero
     *  count means an invalidation was lost — see auditWayMask). */
    unsigned validInDisabledWays() const;

    /** Count a miss the caller has already established without a
     *  lookup (l3::DramTlb's tag cache proving a translation absent). */
    void noteMiss() { ++misses_; }

    // --- fault-injection hooks (check::FaultInjector and tests only;
    // --- never called by the modeled datapath) ---

    /**
     * Corrupt one pseudo-random valid entry: flip a tag bit above the
     * index field (@p flipTag) or a PPN bit (!@p flipTag). @p rnd picks
     * the slot and the bit. @return false if no entry is valid.
     */
    bool corruptRandomEntry(std::uint64_t rnd, bool flipTag);

    /**
     * Make the next way-disabling setActiveWays() skip invalidating the
     * victims — the "dropped invalidation" fault the shadow checker's
     * way-mask audit must catch.
     */
    void armDropInvalidation() { dropNextInvalidation_ = true; }

    /**
     * Raw way-mask override: no power-of-two requirement, no
     * invalidation. Models a spurious way re-enable glitch.
     */
    void forceActiveWays(unsigned w);

  private:
    /** The key of an invalid slot. No valid key has all ones: every
     *  shift is at least a 4 KB page's, so a region key of an address
     *  below 2^vm::kVaddrBits leaves its top 12 bits clear. */
    static constexpr std::uint64_t kInvalidKey = ~std::uint64_t{0};

    /** The fused key of the region (@p vaddr >> @p shift) in address
     *  space @p asid. Exact while vaddr >> shift fits in 48 bits, which
     *  every address below 2^vm::kVaddrBits does. */
    static constexpr std::uint64_t
    keyOf(Addr vaddr, unsigned shift, Asid asid)
    {
        static_assert(sizeof(Asid) == 2, "the key holds a 16-bit ASID");
        return ((vaddr >> shift) << 16) | asid;
    }

    unsigned
    indexOf(Addr vaddr, unsigned idxShift) const
    {
        return static_cast<unsigned>((vaddr >> idxShift) & (sets_ - 1));
    }

    /** Reassemble the entry stored at flat slot @p i (valid slots
     *  only: an invalid key holds no ASID). */
    TlbEntry
    entryAt(unsigned i) const
    {
        return TlbEntry{vbases_[i], pbases_[i], sizes_[i], shifts_[i],
                        static_cast<Asid>(keys_[i])};
    }

    std::string name_;
    unsigned sets_;
    unsigned ways_;
    unsigned activeWays_;
    unsigned logActiveWays_;
    unsigned shift_;

    // Parallel per-slot arrays, set-major: slot i = set * ways_ + way.
    // keys_ is the one word the probe compares: keyOf(vbase, shift,
    // asid) while the slot is valid, kInvalidKey while it is not; every
    // change to a slot's validity, tag or ASID rewrites it. flips_
    // records which of the four injectable PPN bits were flipped since
    // the fill, so a hit knows without a branch whether it returned a
    // corrupted translation.
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint8_t> shifts_;
    std::vector<std::uint8_t> flips_;
    std::vector<Addr> vbases_;
    std::vector<Addr> pbases_;
    std::vector<vm::PageSize> sizes_;
    std::vector<std::uint64_t> stamps_;

    std::uint64_t clock_ = 0;
    /** True while every fill has used shift_: each valid key then
     *  holds vbase >> shift_, and one probe key serves every way. */
    bool uniformShift_ = true;
    bool dropNextInvalidation_ = false;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t resizes_ = 0;
    std::uint64_t ppnFlipsConsumed_ = 0;
};

} // namespace eat::tlb

#endif // EAT_TLB_SET_ASSOC_TLB_HH
