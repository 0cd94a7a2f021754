/**
 * @file
 * x86-64 four-level hierarchical page table.
 *
 * The radix tree mirrors the hardware layout: PML4 (bits 47:39), PDPT
 * (38:30), PD (29:21), PT (20:12), with leaves allowed at the PT (4 KB),
 * PD (2 MB), and PDPT (1 GB) levels. The page walker consults this
 * structure as the authoritative mapping source, exactly as the paper's
 * simulator consulted the real page table through Linux pagemap.
 */

#ifndef EAT_VM_PAGE_TABLE_HH
#define EAT_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "base/types.hh"
#include "vm/page_size.hh"

namespace eat::vm
{

/** A resolved virtual-to-physical translation. */
struct Translation
{
    Addr vbase = 0;      ///< virtual base of the mapping page
    Addr pbase = 0;      ///< physical base of the mapping page
    PageSize size = PageSize::Size4K;

    /** Translate an address inside this page. */
    Addr
    paddr(Addr vaddr) const
    {
        return pbase + pageOffset(vaddr, size);
    }
};

/** The x86-64 page table of one process. */
class PageTable
{
  public:
    PageTable();
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;
    PageTable(PageTable &&) noexcept;
    PageTable &operator=(PageTable &&) noexcept;

    /**
     * Install a mapping. @p vbase and @p pbase must be aligned to the
     * page size; overlapping an existing mapping is a caller bug.
     */
    void map(Addr vbase, Addr pbase, PageSize size);

    /**
     * Install @p count 4 KB mappings contiguous in both spaces
     * (vbase + i*4K -> pbase + i*4K), walking the radix tree once per
     * 512-entry PT node instead of once per page. Identical to @p count
     * calls of map(..., PageSize::Size4K).
     */
    void mapRun(Addr vbase, Addr pbase, std::uint64_t count);

    /** Remove a mapping. @return false if nothing was mapped there. */
    bool unmap(Addr vbase, PageSize size);

    /** Resolve @p vaddr, or std::nullopt if unmapped. */
    std::optional<Translation> translate(Addr vaddr) const;

    /**
     * Break a 2 MB mapping into 512 4 KB mappings of the same frames
     * (models the OS responding to memory pressure; the paper cites this
     * as a reason Lite must be able to re-activate ways).
     *
     * @return false if @p vbase is not a 2 MB mapping.
     */
    bool demote(Addr vbase);

    /** Number of installed leaf mappings of @p size. */
    std::uint64_t pageCount(PageSize size) const;

    /**
     * Visit every installed leaf mapping in ascending vbase order, so
     * independent models (the golden shadow translator) can snapshot
     * the full mapping without walking the radix tree per lookup.
     * Consecutive same-node leaves of one size that are contiguous in
     * both spaces arrive as a single callback: @p fn receives the first
     * mapping of the run and the run's page count. A snapshot of a
     * bulk-mapped region costs one call per page-table node instead of
     * one per page.
     */
    void forEachLeafRun(
        const std::function<void(const Translation &, std::uint64_t)> &fn)
        const;

    /**
     * Number of page-table levels a hardware walk must traverse to reach
     * the leaf for @p size: 4 for 4 KB, 3 for 2 MB, 2 for 1 GB.
     */
    static constexpr unsigned
    walkLevels(PageSize size)
    {
        switch (size) {
          case PageSize::Size4K: return 4;
          case PageSize::Size2M: return 3;
          case PageSize::Size1G: return 2;
        }
        return 4;
    }

  private:
    struct Node;

    Node *ensureChild(Node &node, unsigned index);

    std::unique_ptr<Node> root_;
    std::array<std::uint64_t, kNumPageSizes> counts_{};
};

} // namespace eat::vm

#endif // EAT_VM_PAGE_TABLE_HH
