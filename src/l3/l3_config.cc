#include "l3/l3_config.hh"

namespace eat::l3
{

Result<L3Mode>
l3ModeFromName(std::string_view name)
{
    if (name == "none")
        return L3Mode::None;
    if (name == "cache")
        return L3Mode::Cache;
    if (name == "dram")
        return L3Mode::Dram;
    return Status::error("unknown l3 mode '", std::string(name),
                         "' (expected none|cache|dram)");
}

std::string_view
l3InsertPolicyName(L3InsertPolicy policy)
{
    switch (policy) {
      case L3InsertPolicy::WalkFill:
        return "walk";
      case L3InsertPolicy::PtePromote:
        return "promote";
    }
    return "walk";
}

Result<L3InsertPolicy>
l3InsertPolicyFromName(std::string_view name)
{
    if (name == "walk")
        return L3InsertPolicy::WalkFill;
    if (name == "promote")
        return L3InsertPolicy::PtePromote;
    return Status::error("unknown l3 insertion policy '",
                         std::string(name), "' (expected walk|promote)");
}

} // namespace eat::l3
