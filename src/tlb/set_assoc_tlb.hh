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
 *  - lookups report the hit's LRU *distance* among the active ways
 *    (0 = LRU position, activeWays-1 = MRU), feeding the Figure-6
 *    lru-distance-counters;
 *  - setActiveWays() disables/enables physical ways in powers of two;
 *    disabling invalidates the victims (TLBs hold no dirty data), and
 *    lookups search only active ways, which is what saves energy.
 *
 * Storage is structure-of-arrays: the per-slot fields live in flat
 * parallel arrays laid out set-major (slot index = set * ways + way),
 * so the probe touches only the fields it compares — tag, ASID, shift,
 * validity — as contiguous runs instead of striding across whole entry
 * objects. The probe accumulates a branchless per-way hit mask and the
 * LRU-distance/victim scans run over the flat stamp array.
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
    /** LRU distance of the hit among active ways (valid iff hit). */
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
     *  reproduces the untagged single-core behavior. */
    TlbLookupResult
    lookup(Addr vaddr, Asid asid = 0)
    {
        return lookupWithShift(vaddr, shift_, asid);
    }

    /**
     * Mixed-TLB lookup (TLB_PP): index with @p idxShift (the predicted
     * page size's shift); the tag match still uses each entry's own
     * covered region (and ASID).
     */
    TlbLookupResult lookupWithShift(Addr vaddr, unsigned idxShift,
                                    Asid asid = 0);

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
     * Invalidate every entry tagged @p asid (all ways, active or not).
     * Models the ASID reuse / address-space teardown case.
     * @return number of entries invalidated.
     */
    unsigned invalidateAsid(Asid asid);

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
    unsigned
    indexOf(Addr vaddr, unsigned idxShift) const
    {
        return static_cast<unsigned>((vaddr >> idxShift) & (sets_ - 1));
    }

    /** Reassemble the entry stored at flat slot @p i. */
    TlbEntry
    entryAt(unsigned i) const
    {
        return TlbEntry{vbases_[i], pbases_[i], sizes_[i], shifts_[i],
                        asids_[i]};
    }

    std::string name_;
    unsigned sets_;
    unsigned ways_;
    unsigned activeWays_;
    unsigned logActiveWays_;
    unsigned shift_;

    // Parallel per-slot arrays, set-major: slot i = set * ways_ + way.
    // vtags_ caches vbase >> shift so the probe's tag compare is one
    // shift of the probe address and one load, never a recompute of
    // the entry's own alignment. valid_ bit 0 is the valid bit; bits
    // 1-4 record which of the four injectable PPN bits were flipped
    // since the fill, so a hit knows without a branch whether it
    // returned a corrupted translation.
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> shifts_;
    std::vector<Asid> asids_;
    std::vector<Addr> vtags_;
    std::vector<Addr> vbases_;
    std::vector<Addr> pbases_;
    std::vector<vm::PageSize> sizes_;
    std::vector<std::uint64_t> stamps_;

    std::uint64_t clock_ = 0;
    bool dropNextInvalidation_ = false;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t resizes_ = 0;
    std::uint64_t ppnFlipsConsumed_ = 0;
};

} // namespace eat::tlb

#endif // EAT_TLB_SET_ASSOC_TLB_HH
