/**
 * @file
 * Golden-model address translator for differential checking.
 *
 * An independent, deliberately simple implementation of translation:
 * a sorted run list of pages and one of ranges, built by snapshotting
 * the OS page and range tables. It shares no code with the radix
 * page-table walk, the TLB hierarchy, or the range-TLB datapath, so
 * agreement between the two is meaningful evidence of correctness —
 * and disagreement localizes a bug (or an injected fault) to the MMU
 * side.
 *
 * The page snapshot visits the leaves in ascending vbase order and
 * merges mappings of one size contiguous in both spaces into runs, so
 * a large 4 KB-paged process collapses from one entry per page to one
 * entry per physical extent; one list covers every page size, each run
 * carrying its own. The range snapshot copies the range table's
 * entries as they are. Either list answers a lookup from a copy of the
 * last run it served — checks arrive with locality, and consecutive
 * ones often stay in one run — and otherwise binary-searches without
 * branches. A snapshot holds tens of runs, so it stays cache resident
 * and costs little to rebuild.
 */

#ifndef EAT_CHECK_SHADOW_TRANSLATOR_HH
#define EAT_CHECK_SHADOW_TRANSLATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "vm/page_table.hh"
#include "vm/range_table.hh"

namespace eat::check
{

/**
 * Sorted list of disjoint runs, each mapping [vbase, vlimit)
 * contiguously to pbase in pages of one size. Append-in-order build;
 * find() answers from a copy of the last run it served before it
 * searches.
 */
class RunList
{
  public:
    /** A range translation and the size of the pages it is made of
     *  (range-table entries keep the 4 KB default). */
    struct Run : vm::RangeTranslation
    {
        vm::PageSize size = vm::PageSize::Size4K;
    };

    /** Empty the list and forget the last run served. */
    void
    clear()
    {
        runs_.clear();
        last_ = Run{};
    }

    /** Append @p run as it is; its vbase must be >= every earlier
     *  vlimit (ascending build order). */
    void add(const Run &run);

    /** Append @p count @p size pages mapping @p vbase onward to
     *  @p pbase onward, extending the last run when it has the same
     *  size and is contiguous in both spaces. */
    void addPages(Addr vbase, Addr pbase, vm::PageSize size,
                  std::uint64_t count);

    /** The run containing @p vaddr, or nullptr. The run is a copy that
     *  the next find() or clear() overwrites. */
    const Run *
    find(Addr vaddr) const
    {
        if (last_.contains(vaddr) || search(vaddr))
            return &last_;
        return nullptr;
    }

    std::size_t size() const { return runs_.size(); }

  private:
    /** Binary-search the runs; on a hit, copy the run into last_. */
    bool search(Addr vaddr) const;

    std::vector<Run> runs_;
    /** The last run found (empty, so it contains nothing, after
     *  clear()). A copy: nothing points into runs_. */
    mutable Run last_;
};

/** A flat snapshot of one process's translations. */
class ShadowTranslator
{
  public:
    /**
     * Snapshot @p pageTable (and @p rangeTable when non-null) at
     * construction; call rebuild() after any later mapping change.
     */
    ShadowTranslator(const vm::PageTable &pageTable,
                     const vm::RangeTable *rangeTable);

    /** Re-snapshot the tables (after demotion/remapping). */
    void rebuild();

    /** Golden page translation of @p vaddr, or nullopt if unmapped. */
    std::optional<vm::Translation>
    translatePage(Addr vaddr) const
    {
        const RunList::Run *run = pages_.find(vaddr);
        if (!run)
            return std::nullopt;
        const Addr vbase = vm::pageBase(vaddr, run->size);
        return vm::Translation{vbase, run->paddr(vbase), run->size};
    }

    /** Golden range translation covering @p vaddr, if any. */
    std::optional<vm::RangeTranslation>
    translateRange(Addr vaddr) const
    {
        const RunList::Run *run = ranges_.find(vaddr);
        if (!run)
            return std::nullopt;
        return *run;
    }

    /** Number of leaf mappings snapshotted (not runs). */
    std::size_t pageCount() const { return pageCount_; }
    std::size_t rangeCount() const { return ranges_.size(); }

  private:
    const vm::PageTable &pageTable_;
    const vm::RangeTable *rangeTable_;

    RunList pages_;  ///< merged runs of every page size
    RunList ranges_; ///< the range table's entries, unmerged
    std::size_t pageCount_ = 0;
};

} // namespace eat::check

#endif // EAT_CHECK_SHADOW_TRANSLATOR_HH
