/**
 * @file
 * Range TLB: a fully associative cache of range translations.
 *
 * Each entry maps an *arbitrarily large* range of pages contiguous in
 * both virtual and physical address space, so a tiny structure (4
 * entries at L1, 32 at L2) can cover most of a process's address space.
 * Lookups perform two comparisons per entry (base <= vaddr < limit),
 * which is why the paper charges the range TLB the energy of a page TLB
 * with twice the tag bits.
 *
 * The modeled hardware probes all entries in parallel (a CAM); the
 * simulator scans the slots in order and takes the first match. Ranges
 * cached from the OS range table are disjoint per address space, so at
 * most one entry can match — except after fault injection corrupts a
 * cached vlimit into overlapping a neighbor, where the scan order
 * decides.
 */

#ifndef EAT_TLB_RANGE_TLB_HH
#define EAT_TLB_RANGE_TLB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "tlb/tlb_entry.hh"
#include "vm/range_table.hh"

namespace eat::tlb
{

/** A fully associative TLB over range translations (LRU replacement).
 *  Entries are ASID-tagged like page-TLB entries; asid 0 everywhere
 *  reproduces the untagged single-core behavior. */
class RangeTlb
{
  public:
    RangeTlb(std::string name, unsigned entries);

    /** Find the cached range containing @p vaddr (LRU updated on hit). */
    std::optional<vm::RangeTranslation> lookup(Addr vaddr, Asid asid = 0);

    /** State-preserving hit test. */
    bool probe(Addr vaddr, Asid asid = 0) const;

    /** Install a range translation (deduplicates; replaces LRU).
     *  @return true when a live entry was evicted. */
    bool fill(const vm::RangeTranslation &range, Asid asid = 0);

    void invalidateAll();

    /** Invalidate every entry tagged @p asid.
     *  @return number invalidated. */
    unsigned invalidateAsid(Asid asid);

    /**
     * Shootdown receiver: invalidate entries tagged @p asid whose range
     * overlaps [@p vbase, @p vlimit).
     * @return number invalidated.
     */
    unsigned invalidateRange(Addr vbase, Addr vlimit, Asid asid);

    const std::string &name() const { return name_; }
    unsigned entries() const { return static_cast<unsigned>(slots_.size()); }
    unsigned validCount() const;

    /**
     * Fault-injection hook (check::FaultInjector and tests only):
     * corrupt one pseudo-random valid entry by flipping a bit of its
     * virtual bounds (@p flipTag) or of its physical base (!@p flipTag).
     * @return false if no entry is valid.
     */
    bool corruptRandomEntry(std::uint64_t rnd, bool flipTag);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }

    /** Lookups that hit an entry whose physical base differs from the
     *  value it was filled with (a consumed ppn-flip). */
    std::uint64_t ppnFlipsConsumed() const { return ppnFlipsConsumed_; }

  private:
    struct Slot
    {
        /** Bit 0: valid. Bits 1-4: the pbase bits 12-15 flipped since
         *  the fill (nonzero = the entry returns a wrong paddr). */
        std::uint8_t valid = 0;
        vm::RangeTranslation range{};
        std::uint64_t stamp = 0;
        Asid asid = 0;
    };

    std::string name_;
    std::vector<Slot> slots_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t ppnFlipsConsumed_ = 0;
};

} // namespace eat::tlb

#endif // EAT_TLB_RANGE_TLB_HH
