#include "check/shadow_checker.hh"

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace eat::check
{

namespace
{

/** Cap on eat_warn noise; counters keep counting past it. */
constexpr unsigned kMaxWarnings = 8;

/** Tags a way-mask finding that is an illegal way count, so that it
 *  never equals a stale-entry count or the legal finding 0. */
constexpr std::uint64_t kIllegalWayCount = std::uint64_t{1} << 32;

} // namespace

std::string_view
checkLevelName(CheckLevel level)
{
    switch (level) {
      case CheckLevel::Off: return "off";
      case CheckLevel::Paddr: return "paddr";
      case CheckLevel::Full: return "full";
    }
    return "?";
}

Result<CheckLevel>
parseCheckLevel(std::string_view text)
{
    if (text == "off")
        return CheckLevel::Off;
    if (text == "paddr")
        return CheckLevel::Paddr;
    if (text == "full")
        return CheckLevel::Full;
    return Status::error("unknown check level '", std::string(text),
                         "' (expected off, paddr, or full)");
}

ShadowChecker::ShadowChecker(CheckLevel level,
                             const vm::PageTable &pageTable,
                             const vm::RangeTable *rangeTable)
    : level_(level)
{
    active_ = &contexts_.try_emplace(0, pageTable, rangeTable).first->second;
}

void
ShadowChecker::addContext(tlb::Asid asid, const vm::PageTable &pageTable,
                          const vm::RangeTable *rangeTable)
{
    const bool inserted =
        contexts_.try_emplace(asid, pageTable, rangeTable).second;
    eat_assert(inserted, "asid ", asid, " registered twice");
}

void
ShadowChecker::setActiveAsid(tlb::Asid asid)
{
    if (asid == activeAsid_)
        return;
    const auto it = contexts_.find(asid);
    eat_assert(it != contexts_.end(),
               "context switch to unregistered asid ", asid);
    active_ = &it->second;
    activeAsid_ = asid;
}

void
ShadowChecker::rebuildContext(tlb::Asid asid)
{
    const auto it = contexts_.find(asid);
    eat_assert(it != contexts_.end(),
               "rebuild of unregistered asid ", asid);
    it->second.rebuild();
}

void
ShadowChecker::registerMetrics(obs::MetricRegistry &registry,
                               const std::string &prefix) const
{
    auto name = [&prefix](const char *n) { return prefix + n; };
    registry.addCounter(name("check.translation_checks"),
                        &stats_.translationChecks);
    registry.addCounter(name("check.way_mask_audits"),
                        &stats_.wayMaskAudits);
    registry.addCounter(name("check.paddr_mismatches"),
                        &stats_.paddrMismatches);
    registry.addCounter(name("check.size_mismatches"),
                        &stats_.sizeMismatches);
    registry.addCounter(name("check.source_violations"),
                        &stats_.sourceViolations);
    registry.addCounter(name("check.way_mask_violations"),
                        &stats_.wayMaskViolations);
}

void
ShadowChecker::setTrace(obs::TraceWriter *trace, unsigned core)
{
    trace_ = trace;
    if (trace_)
        traceTrack_ = trace_->track("shadow checker", core);
}

template <typename Format>
void
ShadowChecker::recordMismatch(std::uint64_t &counter, Format &&format)
{
    ++counter;
    if (firstMismatch_.empty() || trace_ || warningsEmitted_ < kMaxWarnings)
        keepMismatch(format());
}

void
ShadowChecker::keepMismatch(std::string message)
{
    if (!coreLabel_.empty())
        message = coreLabel_ + message;
    if (firstMismatch_.empty())
        firstMismatch_ = message;
    if (trace_) {
        obs::JsonObject args;
        args.put("detail", message);
        trace_->instant(traceTrack_, "mismatch", args.str());
    }
    if (warningsEmitted_ < kMaxWarnings) {
        ++warningsEmitted_;
        eat_warn("shadow-checker: ", message);
    }
}

void
ShadowChecker::pageMismatch(Addr vaddr, Addr paddr, vm::PageSize size,
                            std::string_view sourceName,
                            const std::optional<vm::Translation> &golden)
{
    if (!golden) {
        recordMismatch(stats_.sourceViolations, [&] {
            return detail::cat(sourceName, " translated unmapped vaddr 0x",
                               std::hex, vaddr);
        });
        return;
    }
    if (golden->size != size) {
        recordMismatch(stats_.sizeMismatches, [&] {
            return detail::cat(sourceName, " served vaddr 0x", std::hex,
                               vaddr, " as a ", vm::pageSizeName(size),
                               " page; the page table maps it as ",
                               vm::pageSizeName(golden->size));
        });
        return;
    }
    if (golden->paddr(vaddr) != paddr) {
        recordMismatch(stats_.paddrMismatches, [&] {
            return detail::cat(sourceName, " translated vaddr 0x", std::hex,
                               vaddr, " to paddr 0x", paddr,
                               "; golden model says 0x",
                               golden->paddr(vaddr));
        });
    }
}

void
ShadowChecker::rangeMismatch(Addr vaddr, Addr paddr,
                             std::string_view sourceName,
                             const std::optional<vm::RangeTranslation> &golden)
{
    if (!golden) {
        recordMismatch(stats_.sourceViolations, [&] {
            return detail::cat(sourceName, " hit for vaddr 0x", std::hex,
                               vaddr, " but no range translation covers it");
        });
        return;
    }
    if (golden->paddr(vaddr) != paddr) {
        recordMismatch(stats_.paddrMismatches, [&] {
            return detail::cat(sourceName, " translated vaddr 0x", std::hex,
                               vaddr, " to paddr 0x", paddr,
                               "; golden range [0x", golden->vbase, ", 0x",
                               golden->vlimit, ") says 0x",
                               golden->paddr(vaddr));
        });
    }
}

std::uint64_t &
ShadowChecker::lastWayMaskFinding(const tlb::SetAssocTlb &tlb)
{
    for (auto &[audited, finding] : wayMaskFindings_) {
        if (audited == &tlb)
            return finding;
    }
    return wayMaskFindings_.emplace_back(&tlb, 0).second;
}

void
ShadowChecker::auditWayMask(const tlb::SetAssocTlb &tlb)
{
    if (level_ != CheckLevel::Full)
        return;
    ++stats_.wayMaskAudits;

    // A finding is 0 for a legal mask, else the illegal way count or
    // the number of stale entries. An illegal state lasts until Lite's
    // next interval end, so only a finding that differs from the TLB's
    // previous one is a new violation.
    const unsigned ways = tlb.activeWays();
    const bool illegalWays = !isPowerOfTwo(ways) || ways > tlb.ways();
    const unsigned stale = illegalWays ? 0 : tlb.validInDisabledWays();
    const std::uint64_t finding = illegalWays ? kIllegalWayCount | ways
                                              : stale;
    std::uint64_t &last = lastWayMaskFinding(tlb);
    if (finding == last)
        return;
    last = finding;
    if (illegalWays) {
        recordMismatch(stats_.wayMaskViolations, [&] {
            return detail::cat(tlb.name(), ": illegal active-way count ",
                               ways, " (physical ways ", tlb.ways(), ")");
        });
    } else if (stale > 0) {
        recordMismatch(stats_.wayMaskViolations, [&] {
            return detail::cat(tlb.name(), ": ", stale,
                               " valid entries in disabled ways"
                               " (missed invalidation)");
        });
    }
}

Status
ShadowChecker::verdict() const
{
    if (stats_.mismatches() == 0)
        return Status();
    return Status::error("shadow checker observed ", stats_.mismatches(),
                         " mismatches; first: ", firstMismatch_);
}

} // namespace eat::check
