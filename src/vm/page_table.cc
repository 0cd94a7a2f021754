#include "vm/page_table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace eat::vm
{

namespace
{

constexpr Addr kNoLeaf = ~Addr{0};

/** Radix index of @p vaddr at page-table level @p level (4 = PML4). */
constexpr unsigned
levelIndex(Addr vaddr, unsigned level)
{
    const unsigned shift = 12 + 9 * (level - 1);
    return static_cast<unsigned>((vaddr >> shift) & 0x1ff);
}

/** The tree level at which a leaf of @p size lives (1 = PT). */
constexpr unsigned
leafLevel(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return 1;
      case PageSize::Size2M: return 2;
      case PageSize::Size1G: return 3;
    }
    return 1;
}

constexpr PageSize
levelPageSize(unsigned level)
{
    switch (level) {
      case 1: return PageSize::Size4K;
      case 2: return PageSize::Size2M;
      default: return PageSize::Size1G;
    }
}

} // namespace

struct PageTable::Node
{
    struct Slot
    {
        std::unique_ptr<Node> child;
        Addr leafPbase = kNoLeaf;

        bool isLeaf() const { return leafPbase != kNoLeaf; }
        bool isEmpty() const { return !child && !isLeaf(); }
    };

    std::array<Slot, 512> slots;

    /** True when no leaf survives anywhere under this node. */
    bool
    subtreeEmpty() const
    {
        for (const auto &slot : slots) {
            if (slot.isLeaf())
                return false;
            if (slot.child && !slot.child->subtreeEmpty())
                return false;
        }
        return true;
    }
};

PageTable::PageTable() : root_(std::make_unique<Node>()) {}
PageTable::~PageTable() = default;
PageTable::PageTable(PageTable &&) noexcept = default;
PageTable &PageTable::operator=(PageTable &&) noexcept = default;

PageTable::Node *
PageTable::ensureChild(Node &node, unsigned index)
{
    auto &slot = node.slots[index];
    eat_assert(!slot.isLeaf(),
               "mapping overlaps an existing larger page");
    if (!slot.child)
        slot.child = std::make_unique<Node>();
    return slot.child.get();
}

void
PageTable::map(Addr vbase, Addr pbase, PageSize size)
{
    eat_assert(pageOffset(vbase, size) == 0,
               "vbase not aligned to ", pageSizeName(size));
    eat_assert(pageOffset(pbase, size) == 0,
               "pbase not aligned to ", pageSizeName(size));

    Node *node = root_.get();
    const unsigned leaf = leafLevel(size);
    for (unsigned level = 4; level > leaf; --level)
        node = ensureChild(*node, levelIndex(vbase, level));

    auto &slot = node->slots[levelIndex(vbase, leaf)];
    // A huge mapping may land where a lower-level table used to be: if
    // every entry of that table has been unmapped (the demote ->
    // promote cycle), the OS frees the empty table and installs the
    // large leaf in its place.
    if (slot.child && slot.child->subtreeEmpty())
        slot.child.reset();
    eat_assert(slot.isEmpty(),
               "mapping overlaps an existing mapping at ", vbase);
    slot.leafPbase = pbase;
    ++counts_[static_cast<unsigned>(size)];
}

void
PageTable::mapRun(Addr vbase, Addr pbase, std::uint64_t count)
{
    constexpr Addr kPage = 4096;
    eat_assert(pageOffset(vbase, PageSize::Size4K) == 0,
               "vbase not aligned to 4 KB");
    eat_assert(pageOffset(pbase, PageSize::Size4K) == 0,
               "pbase not aligned to 4 KB");

    std::uint64_t done = 0;
    while (done < count) {
        const Addr v = vbase + done * kPage;
        Node *node = root_.get();
        for (unsigned level = 4; level > 1; --level)
            node = ensureChild(*node, levelIndex(v, level));
        const unsigned first = levelIndex(v, 1);
        const std::uint64_t inNode =
            std::min<std::uint64_t>(count - done, 512 - first);
        for (std::uint64_t i = 0; i < inNode; ++i) {
            auto &slot = node->slots[first + i];
            eat_assert(slot.isEmpty(),
                       "mapping overlaps an existing mapping at ",
                       v + i * kPage);
            slot.leafPbase = pbase + (done + i) * kPage;
        }
        counts_[static_cast<unsigned>(PageSize::Size4K)] += inNode;
        done += inNode;
    }
}

bool
PageTable::unmap(Addr vbase, PageSize size)
{
    Node *node = root_.get();
    const unsigned leaf = leafLevel(size);
    for (unsigned level = 4; level > leaf; --level) {
        auto &slot = node->slots[levelIndex(vbase, level)];
        if (!slot.child)
            return false;
        node = slot.child.get();
    }
    auto &slot = node->slots[levelIndex(vbase, leaf)];
    if (!slot.isLeaf())
        return false;
    slot.leafPbase = kNoLeaf;
    --counts_[static_cast<unsigned>(size)];
    return true;
}

std::optional<Translation>
PageTable::translate(Addr vaddr) const
{
    const Node *node = root_.get();
    for (unsigned level = 4; level >= 1; --level) {
        const auto &slot = node->slots[levelIndex(vaddr, level)];
        if (slot.isLeaf()) {
            eat_assert(level <= 3, "leaf above the PDPT level");
            const PageSize size = levelPageSize(level);
            return Translation{pageBase(vaddr, size), slot.leafPbase, size};
        }
        if (!slot.child)
            return std::nullopt;
        node = slot.child.get();
    }
    return std::nullopt;
}

bool
PageTable::demote(Addr vbase)
{
    if (pageOffset(vbase, PageSize::Size2M) != 0)
        return false;
    auto t = translate(vbase);
    if (!t || t->size != PageSize::Size2M)
        return false;

    const Addr pbase = t->pbase;
    if (!unmap(vbase, PageSize::Size2M))
        return false;
    mapRun(vbase, pbase,
           pageBytes(PageSize::Size2M) / pageBytes(PageSize::Size4K));
    return true;
}

std::uint64_t
PageTable::pageCount(PageSize size) const
{
    return counts_[static_cast<unsigned>(size)];
}

void
PageTable::forEachLeafRun(
    const std::function<void(const Translation &, std::uint64_t)> &fn) const
{
    const auto visit = [&fn](const Node &node, unsigned level, Addr prefix,
                             const auto &self) -> void {
        const unsigned shift = 12 + 9 * (level - 1);
        const Addr bytes = Addr{1} << shift;
        for (unsigned i = 0; i < node.slots.size(); ++i) {
            const auto &slot = node.slots[i];
            const Addr vbase = prefix | (Addr{i} << shift);
            if (slot.isLeaf()) {
                // Extend over consecutive leaves mapping contiguous
                // frames; they coalesce into one callback.
                unsigned j = i + 1;
                while (j < node.slots.size() &&
                       node.slots[j].isLeaf() &&
                       node.slots[j].leafPbase ==
                           slot.leafPbase + (j - i) * bytes) {
                    ++j;
                }
                fn(Translation{vbase, slot.leafPbase,
                               levelPageSize(level)},
                   j - i);
                i = j - 1;
            } else if (slot.child) {
                self(*slot.child, level - 1, vbase, self);
            }
        }
    };
    visit(*root_, 4, 0, visit);
}

} // namespace eat::vm
