#include "check/fault_injector.hh"

#include <algorithm>

#include "base/parse.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace eat::check
{

namespace
{

Result<FaultKind>
parseKind(std::string_view text)
{
    if (text == "tag-flip")
        return FaultKind::TagFlip;
    if (text == "ppn-flip")
        return FaultKind::PpnFlip;
    if (text == "drop-inv")
        return FaultKind::DropInvalidation;
    if (text == "spurious-enable")
        return FaultKind::SpuriousEnable;
    return Status::error("unknown fault kind '", std::string(text),
                         "' (expected tag-flip, ppn-flip, drop-inv, or "
                         "spurious-enable)");
}

Result<FaultTarget>
parseTarget(std::string_view text)
{
    if (text == "l1-4k")
        return FaultTarget::L1Tlb4K;
    if (text == "l1-2m")
        return FaultTarget::L1Tlb2M;
    if (text == "l1-1g")
        return FaultTarget::L1Tlb1G;
    if (text == "l2")
        return FaultTarget::L2Tlb;
    if (text == "l1-range")
        return FaultTarget::L1Range;
    if (text == "l2-range")
        return FaultTarget::L2Range;
    if (text == "any")
        return FaultTarget::Any;
    return Status::error("unknown fault target '", std::string(text),
                         "' (expected l1-4k, l1-2m, l1-1g, l2, l1-range, "
                         "l2-range, or any)");
}

bool
isRangeTarget(FaultTarget target)
{
    return target == FaultTarget::L1Range || target == FaultTarget::L2Range;
}

} // namespace

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TagFlip: return "tag-flip";
      case FaultKind::PpnFlip: return "ppn-flip";
      case FaultKind::DropInvalidation: return "drop-inv";
      case FaultKind::SpuriousEnable: return "spurious-enable";
    }
    return "?";
}

Result<std::vector<FaultSpec>>
parseFaultSpecs(const std::string &spec)
{
    std::vector<FaultSpec> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        std::string_view clause(spec.data() + pos, comma - pos);
        pos = comma + 1;
        if (clause.empty())
            return Status::error("empty fault clause in spec '", spec, "'");

        FaultSpec fault;
        // Split off ':PROB' first, then '@TARGET'.
        if (const auto colon = clause.find(':');
            colon != std::string_view::npos) {
            const auto prob = parseF64(clause.substr(colon + 1));
            if (!prob.ok())
                return prob.status();
            fault.probability = prob.value();
            if (fault.probability < 0.0 || fault.probability > 1.0) {
                return Status::error("fault probability ",
                                     fault.probability, " out of [0,1]");
            }
            clause = clause.substr(0, colon);
        }
        if (const auto at = clause.find('@');
            at != std::string_view::npos) {
            const auto target = parseTarget(clause.substr(at + 1));
            if (!target.ok())
                return target.status();
            fault.target = target.value();
            clause = clause.substr(0, at);
        }
        const auto kind = parseKind(clause);
        if (!kind.ok())
            return kind.status();
        fault.kind = kind.value();

        const bool structural = fault.kind == FaultKind::DropInvalidation ||
                                fault.kind == FaultKind::SpuriousEnable;
        if (structural && isRangeTarget(fault.target)) {
            return Status::error(faultKindName(fault.kind),
                                 " targets way-managed page TLBs, not "
                                 "range TLBs");
        }
        out.push_back(fault);
    }
    if (out.empty())
        return Status::error("empty fault spec");
    return out;
}

FaultInjector::FaultInjector(std::vector<FaultSpec> specs,
                             std::uint64_t seed)
    : specs_(std::move(specs)), rng_(seed ^ 0xfa017ab1eull)
{
}

void
FaultInjector::registerPageTlb(tlb::SetAssocTlb *tlb, FaultTarget target)
{
    if (tlb)
        pageTlbs_.push_back({tlb, target});
}

void
FaultInjector::registerRangeTlb(tlb::RangeTlb *tlb, FaultTarget target)
{
    if (tlb)
        rangeTlbs_.push_back({tlb, target});
}

tlb::SetAssocTlb *
FaultInjector::pickPageTlb(FaultTarget target)
{
    if (target == FaultTarget::Any) {
        if (pageTlbs_.empty())
            return nullptr;
        return pageTlbs_[rng_.below(pageTlbs_.size())].tlb;
    }
    for (const auto &slot : pageTlbs_) {
        if (slot.target == target)
            return slot.tlb;
    }
    return nullptr;
}

tlb::RangeTlb *
FaultInjector::pickRangeTlb(FaultTarget target)
{
    if (target == FaultTarget::Any) {
        if (rangeTlbs_.empty())
            return nullptr;
        return rangeTlbs_[rng_.below(rangeTlbs_.size())].tlb;
    }
    for (const auto &slot : rangeTlbs_) {
        if (slot.target == target)
            return slot.tlb;
    }
    return nullptr;
}

const InjectStats &
FaultInjector::stats() const
{
    std::uint64_t consumed = 0;
    for (const auto &slot : pageTlbs_)
        consumed += slot.tlb->ppnFlipsConsumed();
    for (const auto &slot : rangeTlbs_)
        consumed += slot.tlb->ppnFlipsConsumed();
    stats_.ppnFlipsConsumed = consumed;
    return stats_;
}

void
FaultInjector::registerMetrics(obs::MetricRegistry &registry,
                               const std::string &prefix) const
{
    auto name = [&prefix](const char *n) { return prefix + n; };
    registry.addCounter(name("inject.opportunities"),
                        &stats_.opportunities);
    registry.addCounter(name("inject.tag_flips"), &stats_.tagFlips);
    registry.addCounter(name("inject.ppn_flips"), &stats_.ppnFlips);
    registry.addCounter(name("inject.dropped_invalidations"),
                        &stats_.droppedInvalidations);
    registry.addCounter(name("inject.spurious_enables"),
                        &stats_.spuriousEnables);
    registry.addCounter(name("inject.ppn_flips_consumed"),
                        [this] { return stats().ppnFlipsConsumed; });
}

void
FaultInjector::setTrace(obs::TraceWriter *trace, unsigned core)
{
    trace_ = trace;
    if (trace_)
        traceTrack_ = trace_->track("fault injector", core);
}

void
FaultInjector::traceFault(FaultKind kind, const std::string &structName)
{
    if (!trace_)
        return;
    obs::JsonObject args;
    args.put("target", structName);
    trace_->instant(traceTrack_, std::string(faultKindName(kind)),
                    args.str());
}

void
FaultInjector::inject(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::TagFlip:
      case FaultKind::PpnFlip: {
        const bool flipTag = spec.kind == FaultKind::TagFlip;
        if (isRangeTarget(spec.target)) {
            if (auto *tlb = pickRangeTlb(spec.target);
                tlb && tlb->corruptRandomEntry(rng_.next(), flipTag)) {
                ++(flipTag ? stats_.tagFlips : stats_.ppnFlips);
                traceFault(spec.kind, tlb->name());
            }
            return;
        }
        if (auto *tlb = pickPageTlb(spec.target);
            tlb && tlb->corruptRandomEntry(rng_.next(), flipTag)) {
            ++(flipTag ? stats_.tagFlips : stats_.ppnFlips);
            traceFault(spec.kind, tlb->name());
        }
        return;
      }
      case FaultKind::DropInvalidation:
        if (auto *tlb = pickPageTlb(spec.target)) {
            tlb->armDropInvalidation();
            ++stats_.droppedInvalidations;
            traceFault(spec.kind, tlb->name());
        }
        return;
      case FaultKind::SpuriousEnable:
        if (auto *tlb = pickPageTlb(spec.target)) {
            // Force a non-power-of-two way count when one exists (the
            // audit invariant); 2-way structures only allow legal
            // counts, so nothing to glitch.
            const unsigned forced =
                std::min(tlb->ways(), tlb->activeWays() | 3u);
            if (forced != tlb->activeWays() && !isPowerOfTwo(forced)) {
                tlb->forceActiveWays(forced);
                ++stats_.spuriousEnables;
                traceFault(spec.kind, tlb->name());
            }
        }
        return;
    }
}

void
FaultInjector::tick()
{
    ++stats_.opportunities;
    for (const auto &spec : specs_) {
        if (rng_.chance(spec.probability))
            inject(spec);
    }
}

} // namespace eat::check
