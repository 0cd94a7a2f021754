#include "lite/lite_controller.hh"

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "obs/trace.hh"
#include "stats/counter.hh"

namespace eat::lite
{

LiteController::LiteController(const LiteParams &params,
                               std::vector<tlb::SetAssocTlb *> tlbs)
    : params_(params), tlbs_(std::move(tlbs)), rng_(params.seed)
{
    eat_assert(params_.intervalInstructions > 0,
               "Lite interval must be nonzero");
    eat_assert(params_.minWays >= 1, "minWays must be >= 1");
    profilers_.reserve(tlbs_.size());
    for (auto *t : tlbs_) {
        eat_assert(t != nullptr, "null TLB handed to Lite");
        eat_assert(isPowerOfTwo(t->ways()),
                   t->name(), ": Lite requires power-of-two ways");
        profilers_.emplace_back(t->ways());
    }
}

void
LiteController::onTlbHit(std::size_t tlbIndex, unsigned distance,
                         bool soleProvider)
{
    eat_assert(tlbIndex < tlbs_.size(), "bad TLB index");
    // Redundant hits (the range TLB also covered the lookup) carry no
    // utility: losing them to way-disabling creates no additional miss.
    // A way count that is no power of two (a spurious-enable fault) has
    // no band to record into; the interval end gives those ways back.
    const unsigned active = tlbs_[tlbIndex]->activeWays();
    if (!soleProvider || !isPowerOfTwo(active))
        return;
    profilers_[tlbIndex].recordHit(distance, active);
}

bool
LiteController::withinThreshold(double potentialMpki,
                                double referenceMpki) const
{
    if (params_.mode == ThresholdMode::Relative)
        return potentialMpki <= referenceMpki * (1.0 + params_.epsilonRelative);
    return potentialMpki <= referenceMpki + params_.epsilonAbsoluteMpki;
}

void
LiteController::registerMetrics(obs::MetricRegistry &registry,
                                const std::string &prefix) const
{
    registry.addCounter(prefix + "lite.intervals", &liteStats_.intervals);
    registry.addCounter(prefix + "lite.way_disable_events",
                        &liteStats_.wayDisableEvents);
    registry.addCounter(prefix + "lite.degradation_activations",
                        &liteStats_.degradationActivations);
    registry.addCounter(prefix + "lite.random_activations",
                        &liteStats_.randomActivations);
}

void
LiteController::setTrace(obs::TraceWriter *trace, unsigned core)
{
    trace_ = trace;
    tlbTracks_.clear();
    if (!trace_)
        return;
    liteTrack_ = trace_->track("Lite controller", core);
    for (std::size_t i = 0; i < tlbs_.size(); ++i) {
        tlbTracks_.push_back(trace_->track(tlbs_[i]->name(), core));
        traceWayCounter(i); // initial mask, so the step graph starts full
    }
}

void
LiteController::setProvenance(obs::ProvenanceSink *sink, unsigned core,
                              const std::uint64_t *instrClock,
                              std::vector<obs::ProvStruct> ids)
{
    prov_ = sink;
    provCore_ = core;
    provClock_ = instrClock;
    provIds_ = std::move(ids);
    if (prov_) {
        eat_assert(provIds_.size() == tlbs_.size(),
                   "one ProvStruct id per monitored TLB required");
        eat_assert(provClock_ != nullptr,
                   "provenance needs an instruction clock");
    }
}

void
LiteController::provResize(std::size_t i, unsigned fromWays, unsigned toWays)
{
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({*provClock_, 0, 0.0, obs::ProvKind::Resize,
                     provIds_[i], provCore_, 0, 0, false, fromWays, toWays});
    }
}

void
LiteController::traceWayCounter(std::size_t i)
{
    if (trace_) {
        trace_->counter(tlbTracks_[i], "active_ways",
                        tlbs_[i]->activeWays());
    }
}

void
LiteController::activateWays(std::size_t i)
{
    tlb::SetAssocTlb *t = tlbs_[i];
    if (t->activeWays() != t->ways()) {
        const unsigned from = t->activeWays();
        t->setActiveWays(t->ways());
        traceWayCounter(i);
        provResize(i, from, t->ways());
    }
}

void
LiteController::activateAllWays()
{
    for (std::size_t i = 0; i < tlbs_.size(); ++i)
        activateWays(i);
}

void
LiteController::onIntervalEnd(std::uint64_t instructions)
{
    if (instructions == 0)
        return;
    ++liteStats_.intervals;

    const double actualMpki = stats::mpki(actualMisses_, instructions);

    if (havePrevious_ && !withinThreshold(actualMpki, previousMpki_)) {
        // Performance degraded past the threshold (phase change, THP
        // breakup, ...): re-activate everything and re-learn.
        if (trace_) {
            obs::JsonObject args;
            args.put("actual_mpki", actualMpki);
            args.put("previous_mpki", previousMpki_);
            trace_->instant(liteTrack_, "phase-change reset", args.str());
        }
        activateAllWays();
        ++liteStats_.degradationActivations;
    } else {
        // Per-TLB way-disabling decision.
        for (std::size_t i = 0; i < tlbs_.size(); ++i) {
            tlb::SetAssocTlb &t = *tlbs_[i];
            const unsigned active = t.activeWays();
            if (!isPowerOfTwo(active)) {
                // A spurious-enable fault left a way count Lite never
                // sets and could not profile: restore every way.
                activateWays(i);
                continue;
            }
            unsigned best = active;
            for (unsigned target = active / 2; target >= params_.minWays;
                 target /= 2) {
                const std::uint64_t lost =
                    profilers_[i].lostHits(active, target);
                const double potentialMpki =
                    stats::mpki(actualMisses_ + lost, instructions);
                if (!withinThreshold(potentialMpki, actualMpki))
                    break;
                best = target;
            }
            if (best < active) {
                t.setActiveWays(best);
                ++liteStats_.wayDisableEvents;
                if (trace_) {
                    obs::JsonObject args;
                    args.put("from_ways", active);
                    args.put("to_ways", best);
                    trace_->instant(tlbTracks_[i], "way-disable",
                                    args.str());
                    traceWayCounter(i);
                }
                provResize(i, active, best);
            }
        }
    }

    // Random exploration: occasionally turn everything back on so the
    // next interval can observe the utility of currently disabled ways.
    if (rng_.chance(params_.fullActivationProbability)) {
        if (trace_)
            trace_->instant(liteTrack_, "random re-activation");
        activateAllWays();
        ++liteStats_.randomActivations;
    }

    previousMpki_ = actualMpki;
    havePrevious_ = true;
    actualMisses_ = 0;
    for (auto &p : profilers_)
        p.reset();
}

const LruDistanceProfiler &
LiteController::profiler(std::size_t i) const
{
    eat_assert(i < profilers_.size(), "bad profiler index");
    return profilers_[i];
}

} // namespace eat::lite
