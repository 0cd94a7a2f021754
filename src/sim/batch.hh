/**
 * @file
 * Fault-tolerant, parallel (workload x organization) sweep runner.
 *
 * A design-space sweep is only trustworthy if one bad cell cannot take
 * down — or silently truncate — the whole grid. The batch runner
 * therefore executes every run in a forked child process with a
 * wall-clock watchdog: a crash, a panic, or a hang costs exactly that
 * cell, is recorded as such, and the sweep continues. Results are
 * rewritten atomically (tmp file + rename) after every run, so an
 * interrupted sweep always leaves a complete, parseable CSV behind and
 * can resume from its checkpoint journal.
 *
 * The grid cells are independent by construction (every child owns its
 * seed and its whole address space), so the runner keeps up to `jobs`
 * children in flight at once and reaps them signal-driven
 * (sigtimedwait on SIGCHLD — no wake-up polling, even at one job).
 * Parallelism never changes results: rows are ordered by cell index,
 * not completion order, and every metric cell except the two
 * wall-clock-derived columns (wall_seconds, sim_kips) is bit-identical
 * whatever the job count.
 */

#ifndef EAT_SIM_BATCH_HH
#define EAT_SIM_BATCH_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "base/status.hh"
#include "campaign/engine.hh"
#include "mc/run_spec.hh"

namespace eat::sim
{

/** What one grid cell produced. */
struct BatchRow
{
    std::string workload;
    std::string org;
    /** "ok", "failed", or "timeout". */
    std::string status;
    /** Metric cells (empty unless status == "ok"). */
    std::vector<std::string> metrics;
    /** Error description (empty unless the run failed). */
    std::string error;
};

/** Aggregate outcome of one sweep. */
struct BatchSummary
{
    unsigned ok = 0;
    unsigned failed = 0;
    unsigned timedOut = 0;

    /** The engine's counts: cells replayed from the checkpoint journal,
     *  cells quarantined (also counted under failed/timedOut), retry
     *  attempts, and the SIGINT/SIGTERM that stopped the sweep. An
     *  interrupted sweep's CSV and checkpoint are complete for every
     *  settled cell — rerun with resume to finish. */
    campaign::EngineSummary engine;

    /** Every settled row, replayed ones included, in grid order. */
    std::vector<BatchRow> rows;

    std::size_t
    total() const
    {
        return ok + failed + timedOut + engine.replayed;
    }
};

/** Everything one sweep needs. */
struct BatchOptions
{
    /** Workload names (must resolve via workloads::findWorkload). */
    std::vector<std::string> workloadNames;

    /** Organizations to sweep (defaults to all six when empty). */
    std::vector<core::MmuOrg> orgs;

    /**
     * Every cell's run knobs; each cell sets the workload, the org and
     * (in a multicore sweep) the mix. When spec.multicore(), the grid
     * becomes (mix x organization): one multicore run of the whole mix
     * per organization, with the mix name in the workload column and
     * aggregate metrics in the rows. An empty mix means the selected
     * workloads. The vm and L3 knobs apply on top of each org, so a
     * sweep compares organizations under the same host table and tier.
     */
    mc::RunSpec spec = mc::RunSpec::commandLine();

    /** Output CSV path (written atomically after every run). */
    std::string outPath;

    /**
     * Jobs, watchdog, retries, journal, resume and kill-after. Results
     * are independent of the job count (see file comment). An empty
     * journalPath derives "<outPath>.journal": the journal records
     * every settled cell (flushed per record), so a killed sweep
     * resumes losing at most the cells in flight, and a resume without
     * a journal runs the whole grid. runBatch sets the fingerprint,
     * payloadOk and acceptCheckpoint itself.
     */
    campaign::EngineOptions engine;

    /**
     * Testing aid: a "workload:org" cell that deliberately fails, so
     * the fault-tolerance path itself is exercisable end to end. A
     * ":hang" suffix hangs the cell (watchdog food); a ":crash" suffix
     * kills the child with SIGKILL (retry/quarantine food).
     */
    std::string failCell;

    /**
     * When non-empty, every cell streams its per-interval telemetry to
     * "<telemetryDir>/<workload>_<org>.jsonl" (the directory must
     * already exist).
     */
    std::string telemetryDir;
};

/** The CSV header the runner writes. */
const std::vector<std::string> &batchCsvHeader();

/**
 * Indices (into batchCsvHeader()) of the columns derived from wall
 * clock rather than from simulation: wall_seconds and sim_kips. Every
 * other column is deterministic across job counts and reruns.
 */
const std::vector<std::size_t> &batchTimingColumns();

/**
 * Run the sweep. @p log receives one progress line per run. Returns
 * the summary, or an error for unusable options (unknown workload or
 * an unwritable output path); per-run failures are data, not errors.
 */
Result<BatchSummary> runBatch(const BatchOptions &options,
                              std::ostream &log);

} // namespace eat::sim

#endif // EAT_SIM_BATCH_HH
