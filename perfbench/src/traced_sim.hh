/**
 * @file
 * The traced single-core driver: sim::simulate() rebuilt from the
 * public entry points of each layer, with a span around every call.
 *
 * Each Mmu::access span is bucketed by the MmuStats delta it caused
 * (L1 hit, L2 hit, L3 probe, page walk) and each Mmu::tick span by
 * whether it closed a Lite interval. The driver wires the same layers
 * in the same order as simulate(), so its result must reproduce
 * simulate()'s statistics, energy and checker counts exactly; the
 * benchmark counts any difference as a failed run.
 */

#ifndef PERFBENCH_TRACED_SIM_HH
#define PERFBENCH_TRACED_SIM_HH

#include "sim/simulator.hh"
#include "span_stats.hh"
#include "vm/memory_manager.hh"

namespace perfbench
{

/** Spans of one or more traced simulations. */
struct LayerSpans
{
    // Per-operation spans (ns).
    SpanHistogram next;        ///< WorkloadGenerator::next
    SpanHistogram accessL1;    ///< Mmu::access served by an L1 structure
    SpanHistogram accessL2;    ///< ... by an L2 structure
    SpanHistogram accessL3;    ///< ... that probed the L3 tier
    SpanHistogram accessWalk;  ///< ... that walked without the L3 tier
    SpanHistogram tick;        ///< Mmu::tick that closed no Lite interval
    SpanHistogram tickInterval;///< Mmu::tick that closed one or more
    /** Empty spans (back-to-back clock reads) sampled before each
     *  window: what a span adds by itself, under the same host load. */
    SpanHistogram floor;

    // Set-up spans (s), one sample per simulation.
    SpanSamples mmBuild;    ///< vm::MemoryManager construction
    SpanSamples genBuild;   ///< WorkloadGenerator ctor (OS mapping)
    SpanSamples mmuBuild;   ///< core::Mmu ctor
    SpanSamples checkBuild; ///< check::ShadowChecker ctor (golden snapshot)
    SpanSamples skip;       ///< WorkloadGenerator::skip (fast-forward)
};

/** The OS memory manager sim::simulate() builds for @p config. */
eat::vm::MemoryManager buildMemoryManager(const eat::sim::SimConfig &config);

/**
 * Run @p config through the traced driver, adding its spans to
 * @p spans. Returns the SimResult simulate() would have returned
 * (stage timings aside). Configs asking for a Chrome trace or a
 * metrics file are refused: the benchmark uses neither.
 */
eat::sim::SimResult tracedSimulate(const eat::sim::SimConfig &config,
                                   LayerSpans &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACED_SIM_HH
