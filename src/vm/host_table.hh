/**
 * @file
 * EPT-style host (second-dimension) translation table.
 *
 * Under virtualization every guest-physical address produced by the
 * guest page walk is itself translated by the hypervisor's extended
 * page table. This model follows the paper's methodology: the host
 * dimension changes the *cost* of translation — extra walk references,
 * energy, and cycles — never its value. The host table therefore backs
 * the guest with a direct (optionally offset) contiguous mapping, so
 * every simulated TLB organisation and the golden shadow checker work
 * unchanged under `--vm`.
 *
 * Two modes:
 *  - Identity: the host dimension is free. No host walks are performed
 *    or charged; a `--vm=identity` run is bit-identical to a flat run
 *    (the differential tests pin this).
 *  - Paged: the host table is a real radix table with its own leaf page
 *    size; every guest-walk reference costs a host walk of 1..4 memory
 *    references (fewer for 2 MB / 1 GB host pages or host-PWC hits).
 */

#ifndef EAT_VM_HOST_TABLE_HH
#define EAT_VM_HOST_TABLE_HH

#include <optional>
#include <string_view>

#include "base/status.hh"
#include "vm/page_table.hh"

namespace eat::vm
{

/** How the host dimension behaves. */
enum class HostMode : std::uint8_t
{
    Identity, ///< host walks are free (flat-equivalent, differential anchor)
    Paged,    ///< host walks cost real references through the host table
};

/** Host-table shape. */
struct HostTableConfig
{
    HostMode mode = HostMode::Paged;
    PageSize pageSize = PageSize::Size4K; ///< host (EPT) leaf page size
    /**
     * Constant host-physical offset of the direct mapping
     * (hPA = gPA + offset). Zero in simulator runs so translations keep
     * their flat values; unit tests use a nonzero offset to prove the
     * composition actually routes through the host dimension.
     */
    Addr offset = 0;
};

/** The hypervisor's translation table for one virtual machine. */
class HostTable
{
  public:
    explicit HostTable(const HostTableConfig &config = {});

    /** Resolve a guest-physical address to its host mapping. */
    Translation translate(Addr gpa) const;

    /** Host-physical address of @p gpa (direct map, always defined). */
    Addr
    hostAddr(Addr gpa) const
    {
        return gpa + config_.offset;
    }

    HostMode mode() const { return config_.mode; }
    PageSize pageSize() const { return config_.pageSize; }
    Addr offset() const { return config_.offset; }

    /** Host page-table levels one host walk traverses (2, 3, or 4). */
    unsigned
    walkLevels() const
    {
        return PageTable::walkLevels(config_.pageSize);
    }

  private:
    HostTableConfig config_;
};

/** Parse "identity" / "paged" (the `--vm=` argument). */
Result<HostMode> hostModeFromName(std::string_view name);

/** Parse "4k" / "2m" / "1g" (the `--host-pages=` argument). */
Result<PageSize> hostPageSizeFromName(std::string_view name);

} // namespace eat::vm

#endif // EAT_VM_HOST_TABLE_HH
