/**
 * @file
 * The Lite decision mechanism (paper §4.2, Figure 7).
 *
 * Lite divides execution into fixed instruction intervals. During an
 * interval it tracks (i) the actual number of L1 TLB misses of the core
 * (the actual-misses-counter) and (ii) the utility of the active ways of
 * every L1 page TLB (lru-distance-counters). At each interval end it:
 *
 *  1. re-activates all ways if the actual MPKI degraded past the
 *     threshold relative to the previous interval (phase change, THP
 *     breakup, ...);
 *  2. otherwise, per TLB, disables ways in powers of two as long as the
 *     *potential* MPKI (actual misses + hits the smaller configuration
 *     would have lost) stays within the threshold of the actual MPKI;
 *  3. with a small probability re-activates all ways anyway, so the
 *     mechanism can observe utility it cannot measure in disabled ways
 *     and avoids synchronizing with unrepresentative phases.
 *
 * The threshold is either relative (12.5% for TLB_Lite) or absolute
 * (0.1 MPKI for RMM_Lite).
 */

#ifndef EAT_LITE_LITE_CONTROLLER_HH
#define EAT_LITE_LITE_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "lite/lru_profiler.hh"
#include "obs/prov_ids.hh"
#include "tlb/set_assoc_tlb.hh"

namespace eat::obs
{
class MetricRegistry;
class ProvenanceSink;
class TraceWriter;
} // namespace eat::obs

namespace eat::lite
{

/** How the epsilon threshold of the decision algorithm is interpreted. */
enum class ThresholdMode
{
    Relative, ///< potential MPKI <= actual * (1 + epsilon)
    Absolute, ///< potential MPKI <= actual + epsilon
};

/** Tunable parameters of the Lite mechanism. */
struct LiteParams
{
    /** Interval length in instructions. */
    std::uint64_t intervalInstructions = 1'000'000;

    ThresholdMode mode = ThresholdMode::Relative;

    /** Relative threshold (used in Relative mode); 0.125 in the paper. */
    double epsilonRelative = 0.125;

    /** Absolute MPKI threshold (Absolute mode); 0.1 in the paper. */
    double epsilonAbsoluteMpki = 0.1;

    /** Probability of re-activating all ways at an interval end. */
    double fullActivationProbability = 1.0 / 64.0;

    /** Lite never goes below this many active ways (1 in the paper:
     *  TLBs are downsized but never fully turned off). */
    unsigned minWays = 1;

    /** Deterministic seed for the random full activation. */
    std::uint64_t seed = 0x11feu;
};

/** Aggregate statistics of Lite's behaviour over a run. */
struct LiteStats
{
    std::uint64_t intervals = 0;
    std::uint64_t wayDisableEvents = 0;    ///< TLBs shrunk at interval ends
    std::uint64_t degradationActivations = 0;
    std::uint64_t randomActivations = 0;
};

/**
 * The per-core Lite controller. It owns one LruDistanceProfiler per
 * monitored L1 page TLB and drives their way-disabling.
 */
class LiteController
{
  public:
    /**
     * @param params tunables.
     * @param tlbs the L1 page TLBs to monitor and resize (not owned;
     *        must outlive the controller). Each must have power-of-two
     *        associativity.
     */
    LiteController(const LiteParams &params,
                   std::vector<tlb::SetAssocTlb *> tlbs);

    /** The monitoring hook: an L1 TLB miss triggered an L2 access. */
    void
    onL1Miss()
    {
        ++actualMisses_;
    }

    /**
     * The monitoring hook: TLB @p tlbIndex hit at @p distance from the
     * LRU position. @p soleProvider is false when another L1 structure
     * (the L1-range TLB) hit the same lookup — such redundant hits carry
     * no utility, since disabling the way would not create a miss.
     */
    void onTlbHit(std::size_t tlbIndex, unsigned distance,
                  bool soleProvider);

    /**
     * Interval boundary: run the decision algorithm over the closed
     * interval of @p instructions instructions and reset the counters.
     */
    void onIntervalEnd(std::uint64_t instructions);

    const LiteParams &params() const { return params_; }
    const LiteStats &stats() const { return liteStats_; }
    std::uint64_t actualMisses() const { return actualMisses_; }

    /** Register the lite.* counters into @p registry (bindings only;
     *  the registry must not outlive this controller). Multicore runs
     *  pass a per-core @p prefix ("core2."). */
    void registerMetrics(obs::MetricRegistry &registry,
                         const std::string &prefix = "") const;

    /**
     * Attach a decision tracer (not owned; null detaches). Every way
     * disable, phase-change reset, and random re-activation becomes a
     * Chrome-trace event on the owning TLB's track. @p core places the
     * tracks under that core's process in multicore traces.
     */
    void setTrace(obs::TraceWriter *trace, unsigned core = 0);

    /**
     * Attach a provenance sink (not owned; null detaches). Every
     * interval resize — way disable, phase-change reset, random
     * re-activation — becomes a Resize event per resized TLB, tagged
     * with the owning core, stamped from @p instrClock, and identified
     * by @p ids (one ProvStruct per monitored TLB, same order as the
     * tlbs vector handed to the constructor).
     */
    void setProvenance(obs::ProvenanceSink *sink, unsigned core,
                       const std::uint64_t *instrClock,
                       std::vector<obs::ProvStruct> ids);

    /** The profiler of TLB @p i (exposed for tests). */
    const LruDistanceProfiler &profiler(std::size_t i) const;

  private:
    /** potential <= threshold(reference)? */
    bool withinThreshold(double potentialMpki, double referenceMpki) const;

    /** Give TLB @p i all its ways back (traced, with provenance). */
    void activateWays(std::size_t i);
    void activateAllWays();

    /** Emit an active_ways counter sample for TLB @p i (if tracing). */
    void traceWayCounter(std::size_t i);

    /** Emit a provenance Resize event for TLB @p i (if attached). */
    void provResize(std::size_t i, unsigned fromWays, unsigned toWays);

    LiteParams params_;
    std::vector<tlb::SetAssocTlb *> tlbs_;
    std::vector<LruDistanceProfiler> profilers_;
    Rng rng_;

    obs::TraceWriter *trace_ = nullptr;
    std::vector<unsigned> tlbTracks_;
    unsigned liteTrack_ = 0;

    obs::ProvenanceSink *prov_ = nullptr;
    unsigned provCore_ = 0;
    const std::uint64_t *provClock_ = nullptr;
    std::vector<obs::ProvStruct> provIds_;

    std::uint64_t actualMisses_ = 0;   ///< the actual-misses-counter
    double previousMpki_ = 0.0;        ///< the previous-misses-counter
    bool havePrevious_ = false;

    LiteStats liteStats_;
};

} // namespace eat::lite

#endif // EAT_LITE_LITE_CONTROLLER_HH
