/**
 * @file
 * The operating-system memory-management model.
 *
 * Owns one process's virtual address space, page table and range table,
 * and implements the allocation policies the paper's configurations
 * assume:
 *
 *  - 4 KB only (the 4KB baseline),
 *  - transparent huge pages (THP: 2 MB mappings over aligned chunks),
 *  - eager paging (RMM: contiguous physical allocation at request time,
 *    recorded as range translations redundantly with the page table).
 *
 * "Perfect" eager paging (the paper's assumption) falls out of a fresh
 * physical pool; imperfect contiguity can be modeled by fragmenting the
 * pool or splitting regions into multiple ranges.
 */

#ifndef EAT_VM_MEMORY_MANAGER_HH
#define EAT_VM_MEMORY_MANAGER_HH

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "vm/page_size.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/range_table.hh"

namespace eat::vm
{

/** Allocation policy knobs for one simulated process. */
struct OsPolicy
{
    /** Promote aligned 2 MB chunks to huge pages (THP). */
    bool transparentHugePages = false;

    /** Allocate physically contiguous ranges and fill the range table. */
    bool eagerPaging = false;

    /**
     * Fraction of THP-eligible 2 MB chunks actually promoted (models the
     * OS failing to find aligned physical memory under pressure).
     */
    double thpCoverage = 1.0;

    /**
     * Number of physically contiguous pieces an eager allocation is
     * split into (1 = perfect eager paging; more models fragmentation).
     */
    unsigned eagerRangesPerRegion = 1;
};

/** A virtually contiguous mapped region returned by mmap(). */
struct Region
{
    Addr vbase = 0;
    std::uint64_t bytes = 0;

    Addr vlimit() const { return vbase + bytes; }
};

/** Why the OS rewrote a region's translations. */
enum class RemapKind
{
    Demotion,   ///< 2 MB mappings broken into 4 KB (memory pressure)
    Promotion,  ///< 4 KB mappings collapsed into 2 MB (THP daemon)
    Compaction, ///< region migrated to fresh contiguous frames
};

/**
 * One page-table rewrite affecting [vbase, vlimit). Cached translations
 * of the region — on every core — are stale after this; multicore
 * simulations subscribe via setRemapListener and broadcast the TLB
 * shootdown.
 */
struct RemapEvent
{
    RemapKind kind = RemapKind::Demotion;
    Addr vbase = 0;
    Addr vlimit = 0;
    std::uint64_t pagesChanged = 0; ///< leaf mappings rewritten
    bool rangesChanged = false;     ///< range-table entries rewritten too
};

/** One process's OS-level memory manager. */
class MemoryManager
{
  public:
    /**
     * @param policy the allocation policy.
     * @param physBytes physical pool size (must exceed the workload
     *                  footprint).
     * @param seed deterministic seed for probabilistic THP promotion.
     */
    MemoryManager(const OsPolicy &policy, std::uint64_t physBytes,
                  std::uint64_t seed = 7);

    /**
     * Map @p bytes of fresh memory (rounded up to 4 KB) and return the
     * region. Throws (fatal) if physical memory is exhausted.
     */
    Region mmap(std::uint64_t bytes);

    /**
     * Break all 2 MB mappings of @p region into 4 KB mappings (models
     * the OS responding to memory pressure).
     *
     * @return number of huge pages demoted.
     */
    std::uint64_t demoteRegion(const Region &region);

    /**
     * Collapse fully 4 KB-mapped, 2 MB-aligned chunks of @p region into
     * 2 MB mappings (the THP daemon's khugepaged pass). Chunks whose
     * frames are already contiguous and aligned are promoted in place;
     * others migrate to a fresh contiguous 2 MB block — unless a range
     * translation covers them (moving would break it) or the pool has
     * no aligned block left, in which case the chunk is skipped.
     *
     * @return number of chunks promoted.
     */
    std::uint64_t promoteRegion(const Region &region);

    /**
     * Migrate @p region to one fresh physically contiguous block
     * (memory compaction / page migration). Page sizes are preserved;
     * under eager paging the region's range translations are rewritten
     * to the new backing.
     *
     * @return false (and no change) when no contiguous block fits.
     */
    bool compactRegion(const Region &region);

    /**
     * Subscribe to page-table rewrites (demotion, promotion,
     * compaction). One listener only; pass nullptr to detach. The
     * listener runs after the page table (and range table) are
     * rewritten, exactly once per mutated region.
     */
    void
    setRemapListener(std::function<void(const RemapEvent &)> listener)
    {
        remapListener_ = std::move(listener);
    }

    const PageTable &pageTable() const { return pageTable_; }
    const RangeTable &rangeTable() const { return rangeTable_; }
    PhysicalMemory &physicalMemory() { return phys_; }
    const std::vector<Region> &regions() const { return regions_; }
    const OsPolicy &policy() const { return policy_; }

    /** Total bytes mapped via mmap(). */
    std::uint64_t mappedBytes() const { return mappedBytes_; }

    /** Fraction of mapped bytes covered by range translations. */
    double rangeCoverage() const;

  private:
    /** Map [vbase, vbase+bytes) onto [pbase, ...) with THP policy. */
    void mapChunk(Addr vbase, Addr pbase, std::uint64_t bytes);

    /** Map [vbase, ...) with per-page physical allocation (no ranges). */
    void mapScattered(Addr vbase, std::uint64_t bytes);

    /** Fire the remap listener (if any) for a completed rewrite. */
    void notifyRemap(const RemapEvent &event);

    OsPolicy policy_;
    PhysicalMemory phys_;
    PageTable pageTable_;
    RangeTable rangeTable_;
    Rng rng_;
    std::vector<Region> regions_;
    Addr nextVbase_ = 0x2000'0000;
    std::uint64_t mappedBytes_ = 0;
    std::function<void(const RemapEvent &)> remapListener_;

    /** Virtual guard gap between regions (keeps ranges distinct). */
    static constexpr Addr kGuardGap = 2_MiB;
};

} // namespace eat::vm

#endif // EAT_VM_MEMORY_MANAGER_HH
