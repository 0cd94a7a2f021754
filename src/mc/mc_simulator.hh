/**
 * @file
 * The multicore simulation driver.
 *
 * Layers a multiprogrammed system model on the per-core Mmu:
 *
 *  - N cores, each a full Mmu (and Lite controller) of one
 *    organization, fed by a deterministic round-robin scheduler that
 *    interleaves T = max(cores, mix size) tasks in fixed instruction
 *    quanta. In round r, core c runs task (r + c) % T — tasks migrate
 *    between cores but never run on two cores at once, and a task's
 *    operation stream continues wherever it is scheduled.
 *
 *  - Address-space sharing is configurable. Private mode gives every
 *    task its own MemoryManager (its own page/range tables) and the
 *    ASID equal to its task index; because every address space starts
 *    at the same base address, tasks overlap virtually and the ASID
 *    tags are what keep their TLB entries apart. Shared mode maps all
 *    tasks into one address space (distinct regions, ASID 0 for
 *    everyone), modeling a multithreaded process — context switches
 *    are then free at the MMU.
 *
 *  - Context-switch cost is configurable: by default TLBs are
 *    ASID-tagged and survive switches (only the untagged
 *    paging-structure caches flush); --ctx-flush models cores without
 *    tags, where every real switch invalidates every TLB.
 *
 *  - TLB shootdowns: every page-table rewrite the OS performs
 *    (demotion, promotion, compaction — driven at a configurable
 *    per-task instruction interval) broadcasts invalidations to every
 *    core, and the initiating core is charged the broadcast's cycle
 *    and energy cost (config shootdown* knobs).
 *
 * This is the only simulation engine: sim::simulate() is a run at one
 * core with a one-workload mix and churn off (the defaults), where the
 * quantum boundaries re-enter the same context (a free switch), and
 * sim::simulateFromTrace() is mcReplay() of such a run.
 */

#ifndef EAT_MC_MC_SIMULATOR_HH
#define EAT_MC_MC_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "stats/table.hh"
#include "tlb/tlb_entry.hh"
#include "vm/memory_manager.hh"
#include "workloads/workload.hh"

namespace eat::mc
{

/** Everything one multicore run needs. */
struct McConfig
{
    /**
     * The per-core configuration: MMU organization, measurement
     * windows (per core), seed, check level, fault spec, and the
     * observability paths (shared by all cores). The workload field is
     * ignored — the mix supplies the workloads.
     */
    sim::SimConfig base;

    /** Number of cores (1 .. kMaxCores). */
    unsigned cores = 1;

    /** The multiprogrammed mix; replicated cyclically over
     *  max(cores, mix.size()) tasks. Must not be empty. */
    std::vector<workloads::WorkloadSpec> mix;

    /** One address space for all tasks (threads) instead of one per
     *  task (processes). */
    bool sharedAddressSpace = false;

    /** Model cores without ASID tags: flush all TLBs on every real
     *  context switch. */
    bool ctxFlush = false;

    /** Scheduler quantum in instructions. */
    InstrCount quantumInstructions = 100'000;

    /**
     * Per-task instructions between OS churn passes (demote/promote
     * for THP policies, compaction otherwise), each of which triggers
     * a TLB shootdown. 0 disables churn — and with it, shootdowns.
     */
    InstrCount remapInterval = 0;

    /** Core whose operation stream drives base.faultSpec (the fault
     *  campaign targets exactly one core's TLBs). */
    unsigned faultCore = 0;

    /** How remap invalidations reach remote cores. The architectural
     *  invalidations are identical in both modes — only the cost book
     *  differs (see mc/coherence.hh). */
    enum class CoherenceMode { Ipi, Hw };
    CoherenceMode coherence = CoherenceMode::Ipi;
};

/** Parse "ipi" / "hw" (the `--coherence=` argument). */
Result<McConfig::CoherenceMode> coherenceModeFromName(std::string_view name);

/** Canonical printable name. */
std::string_view coherenceModeName(McConfig::CoherenceMode mode);

/** Per-address-space facts of one task. */
struct TaskResult
{
    std::string workload;
    tlb::Asid asid = 0;
    InstrCount instructions = 0;     ///< retired across all cores
    std::uint64_t remapEvents = 0;   ///< OS churn rewrites of its space
    std::uint64_t pages4K = 0;
    std::uint64_t pages2M = 0;
    std::uint64_t numRanges = 0;
    double rangeCoverage = 0.0;
};

/** The result of one multicore run. */
struct McResult
{
    unsigned cores = 1;
    std::string mixName;
    bool sharedAddressSpace = false;
    bool ctxFlush = false;
    InstrCount quantumInstructions = 0;

    /**
     * One full SimResult per core. The OS-level fields (pages4K,
     * pages2M, numRanges, rangeCoverage) hold the sum/blend over every
     * address space and are identical on every core; workloadName
     * holds the mix.
     */
    std::vector<sim::SimResult> perCore;

    /** One entry per task (>= cores entries). */
    std::vector<TaskResult> tasks;

    /** The coherence mode the run used. */
    McConfig::CoherenceMode coherence = McConfig::CoherenceMode::Ipi;

    /** Remap broadcasts performed (all cores invalidate per event). */
    std::uint64_t shootdownEvents = 0;

    /** TLB entries dropped by those broadcasts, summed over cores. */
    std::uint64_t shootdownInvalidations = 0;

    /** Hw mode: filter probes issued (== shootdownEvents there) and
     *  sharer cores targeted, summed over probes. Zero in IPI mode. */
    std::uint64_t coherenceProbes = 0;
    std::uint64_t coherenceTargetedCores = 0;

    /** Exact provenance totals/histograms over the whole run (the sink
     *  is shared by all cores; the summary's cores array is indexed by
     *  core id). Empty unless provenance was on and compiled in. */
    bool provenanceEnabled = false;
    obs::ProvSummary provenance;

    /** Wall-clock stage timings of the whole run. */
    obs::StageTimings profile;

    // --- aggregates over cores ---
    InstrCount totalInstructions() const;
    PicoJoules totalEnergyPj() const;      ///< dynamic, incl. shootdowns
    double energyPerKiloInstr() const;
    double aggregateMpki() const;          ///< L1 misses per kilo-instr
    double missCyclesPerKiloInstr() const;
    double simKips() const;                ///< all cores, wall-clock
};

/**
 * The per-core window (base.simulateInstructions) from which a
 * generated run produces each task's operations on a thread of its
 * own, ahead of the simulating thread (DESIGN.md §15). Starting a pipe
 * costs a few tenths of a millisecond, so shorter windows generate
 * inline. Either way the operation stream, and so every outcome, is
 * the same.
 */
inline constexpr InstrCount kPipeMinWindow = 500'000;

/** Run one multicore simulation. */
McResult mcSimulate(const McConfig &config);

/**
 * Run @p config (one core, one workload) with the operation stream
 * read from the trace at @p tracePath instead of generated. The
 * workload still lays out the address space. The run ends at the end
 * of the trace or of the measured window, whichever comes first.
 */
McResult mcReplay(const McConfig &config, const std::string &tracePath);

/**
 * The OS memory manager of one address space holding @p specs under
 * @p base's organization policy, for a workload generator seeded with
 * @p seed. The physical pool is sized from the footprints unless
 * base.physBytes overrides it.
 */
std::unique_ptr<vm::MemoryManager>
makeAddressSpace(const sim::SimConfig &base,
                 const std::vector<workloads::WorkloadSpec> &specs,
                 std::uint64_t seed);

/** Per-core summary table (energy, MPKI, switches, shootdowns). */
stats::TextTable mcPerCoreTable(const McResult &result);

/**
 * Figure-10-style comparison across organizations of one mix: one row
 * per run, energy and miss-cycles normalized to the first run.
 */
stats::TextTable mcOrgTable(const std::vector<McResult> &runs);

} // namespace eat::mc

#endif // EAT_MC_MC_SIMULATOR_HH
