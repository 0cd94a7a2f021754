/**
 * @file
 * Single-core simulation: the configuration and result of one run.
 *
 * A run binds a workload model, the OS memory manager for the chosen
 * configuration's policy, and the MMU; runs fast-forward plus a
 * measured window; and collects every statistic the paper's tables and
 * figures need. simulate() and simulateFromTrace() are the multicore
 * engine (mc/mc_simulator.hh) at one core with a one-workload mix.
 */

#ifndef EAT_SIM_SIMULATOR_HH
#define EAT_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>

#include "check/fault_injector.hh"
#include "check/shadow_checker.hh"
#include "core/config.hh"
#include "core/mmu_stats.hh"
#include "energy/account.hh"
#include "lite/lite_controller.hh"
#include "obs/profiler.hh"
#include "obs/provenance.hh"
#include "stats/timeline.hh"
#include "workloads/workload.hh"

namespace eat::sim
{

/** Everything one simulation run needs. */
struct SimConfig
{
    workloads::WorkloadSpec workload;
    core::MmuConfig mmu = core::MmuConfig::make(core::MmuOrg::Thp);

    /** Instructions to skip before measuring (the paper skips 50 G on
     *  real hardware; synthetic phases are compressed accordingly). */
    InstrCount fastForwardInstructions = 2'000'000;

    /** Instructions in the measured window. */
    InstrCount simulateInstructions = 20'000'000;

    std::uint64_t seed = 42;

    /** Record an L1-MPKI sample every this many instructions
     *  (0 disables the Figure-4 timeline). */
    InstrCount timelineInterval = 0;

    /** Physical pool size; 0 = footprint-derived default. */
    std::uint64_t physBytes = 0;

    /**
     * Override for the OS policy's eagerRangesPerRegion (imperfect
     * eager paging); 0 keeps the organization's default.
     */
    unsigned eagerRangesPerRegion = 0;

    /**
     * Differential-checking depth: every translation the MMU produces
     * is cross-checked against a golden flat-map translator. On by
     * default — a sweep whose checker never ran proves nothing — and
     * set to Off for raw-speed measurement runs.
     */
    check::CheckLevel checkLevel = check::CheckLevel::Full;

    /**
     * Fault-injection spec (see check/fault_injector.hh grammar);
     * empty disables injection. Uses @c seed, so runs stay
     * deterministic.
     */
    std::string faultSpec;

    /** Read only by perfbench; remove with the next benchmark change. */
    bool frontCache = true;

    // --- observability outputs (all optional; empty path = off) ---

    /** Write the end-of-run metric registry as JSON to this path. */
    std::string metricsPath;

    /** Stream per-interval telemetry records (JSONL) to this path. */
    std::string telemetryPath;

    /** Write a Chrome trace-event JSON of Lite/TLB decisions here. */
    std::string traceOutPath;

    /** Stream per-translation provenance events (JSONL) to this path.
     *  Requires the provenance hooks to be compiled in (the default;
     *  see the EAT_PROVENANCE CMake option). */
    std::string provenancePath;

    /** Write one sampled translation path out of every N (control
     *  events — resizes, intervals, shootdowns — and the exact summary
     *  totals are never sampled). Must be >= 1. */
    std::uint64_t provenanceSampleEvery = 1;

    /** Accumulate provenance totals/histograms in memory even with no
     *  provenancePath (powers the qa reconciliation oracle). Ignored
     *  (left off) when the hooks are compiled out. */
    bool provenanceEnabled = false;
};

/** The result of one simulation run. */
struct SimResult
{
    std::string workloadName;
    core::MmuOrg org{};

    core::MmuStats stats;
    energy::EnergyReport energy;
    lite::LiteStats lite;       ///< zeros when Lite is disabled
    bool liteEnabled = false;

    /** Differential-checker outcome (zeros when checking was off). */
    check::CheckStats check;
    check::CheckLevel checkLevel = check::CheckLevel::Off;
    std::string firstMismatch;

    /** Fault-injection activity (zeros when injection was off). */
    check::InjectStats inject;

    stats::Timeline mpkiTimeline;

    /** Wall-clock seconds per driver stage (always populated). */
    obs::StageTimings profile;

    /** Read only by perfbench; remove with the next benchmark change. */
    std::uint64_t frontCacheHits = 0;

    /** Telemetry/trace volume (zeros when the outputs were off). */
    std::uint64_t telemetryRecords = 0;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceEventsDropped = 0;

    /** Exact provenance totals/histograms (empty unless provenance was
     *  on — path given or provenanceEnabled set — and compiled in). */
    bool provenanceEnabled = false;
    obs::ProvSummary provenance;

    // OS-level facts of the run.
    std::uint64_t pages4K = 0;
    std::uint64_t pages2M = 0;
    std::uint64_t numRanges = 0;
    double rangeCoverage = 0.0;

    /** Total dynamic translation energy (pJ). */
    PicoJoules totalEnergy() const { return energy.breakdown.total(); }

    /** Dynamic energy per kilo-instruction (pJ), the comparable unit. */
    double energyPerKiloInstr() const;

    /** TLB-miss cycles per kilo-instruction. */
    double missCyclesPerKiloInstr() const;

    /** Simulated kilo-instructions per wall-clock second (all stages). */
    double simKips() const;
};

/** Run one simulation. */
SimResult simulate(const SimConfig &config);

/**
 * Replay a recorded trace through the configured MMU instead of
 * generating operations. The config's workload spec still defines the
 * address space (it must be the spec the trace was recorded against,
 * with the same seed, so the OS lays out identical regions);
 * fastForward/simulate windows are ignored — the whole trace runs.
 * The workload name gains a " (trace)" suffix.
 */
SimResult simulateFromTrace(const SimConfig &config,
                            const std::string &tracePath);

/**
 * Record @p instructions worth of the configured workload's operation
 * stream (after fast-forward) to @p tracePath.
 *
 * @return number of operations recorded.
 */
std::uint64_t recordTrace(const SimConfig &config,
                          const std::string &tracePath);

} // namespace eat::sim

#endif // EAT_SIM_SIMULATOR_HH
