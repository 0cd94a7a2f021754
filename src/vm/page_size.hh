/**
 * @file
 * x86-64 page-size geometry (4 KB, 2 MB, 1 GB).
 */

#ifndef EAT_VM_PAGE_SIZE_HH
#define EAT_VM_PAGE_SIZE_HH

#include <string_view>

#include "base/types.hh"

namespace eat::vm
{

/** The page sizes the x86-64 architecture supports. */
enum class PageSize : std::uint8_t
{
    Size4K,
    Size2M,
    Size1G,
};

/** Number of distinct page sizes. */
constexpr unsigned kNumPageSizes = 3;

/** Width of the virtual addresses the four-level page table maps: it
 *  indexes bits 12-47, so an address with any higher bit set has no
 *  translation of its own. */
constexpr unsigned kVaddrBits = 48;

/** log2 of the page size in bytes (12 / 21 / 30). */
constexpr unsigned
pageShift(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return 12;
      case PageSize::Size2M: return 21;
      case PageSize::Size1G: return 30;
    }
    return 12;
}

/** Page size in bytes. */
constexpr Addr
pageBytes(PageSize size)
{
    return Addr{1} << pageShift(size);
}

/** Base address of the page of size @p size containing @p addr. */
constexpr Addr
pageBase(Addr addr, PageSize size)
{
    return alignDown(addr, pageBytes(size));
}

/** Offset of @p addr within its page of size @p size. */
constexpr Addr
pageOffset(Addr addr, PageSize size)
{
    return addr & (pageBytes(size) - 1);
}

/** Human-readable page-size name. */
constexpr std::string_view
pageSizeName(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return "4KB";
      case PageSize::Size2M: return "2MB";
      case PageSize::Size1G: return "1GB";
    }
    return "?";
}

} // namespace eat::vm

#endif // EAT_VM_PAGE_SIZE_HH
