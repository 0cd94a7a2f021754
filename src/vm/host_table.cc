#include "vm/host_table.hh"

#include "base/logging.hh"

namespace eat::vm
{

HostTable::HostTable(const HostTableConfig &config) : config_(config)
{
    eat_assert(pageOffset(config_.offset, config_.pageSize) == 0,
               "host-table offset must be host-page aligned");
}

Translation
HostTable::translate(Addr gpa) const
{
    const Addr vbase = pageBase(gpa, config_.pageSize);
    return Translation{vbase, vbase + config_.offset, config_.pageSize};
}

Result<HostMode>
hostModeFromName(std::string_view name)
{
    if (name == "identity")
        return HostMode::Identity;
    if (name == "paged")
        return HostMode::Paged;
    return Status::error("unknown host-table mode '", name,
                         "' (expected identity or paged)");
}

Result<PageSize>
hostPageSizeFromName(std::string_view name)
{
    if (name == "4k")
        return PageSize::Size4K;
    if (name == "2m")
        return PageSize::Size2M;
    if (name == "1g")
        return PageSize::Size1G;
    return Status::error("unknown host page size '", name,
                         "' (expected 4k, 2m, or 1g)");
}

} // namespace eat::vm
