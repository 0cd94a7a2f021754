#include "sim/batch.hh"

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "campaign/engine.hh"
#include "mc/mix.hh"
#include "stats/counter.hh"
#include "stats/csv.hh"
#include "workloads/suite.hh"

namespace eat::sim
{

namespace
{

/** Metric columns between "status" and "error". */
constexpr std::size_t kMetricCount = 10;

std::string
fmt(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
}

std::vector<std::string>
metricCells(const mc::McResult &r)
{
    std::uint64_t l1Misses = 0, l2Misses = 0, mismatches = 0,
                  injected = 0;
    for (const auto &c : r.perCore) {
        l1Misses += c.stats.l1Misses;
        l2Misses += c.stats.l2Misses;
        mismatches += c.check.mismatches();
        injected += c.inject.injected();
    }
    return {
        std::to_string(r.totalInstructions()),
        fmt(stats::mpki(l1Misses, r.totalInstructions())),
        fmt(stats::mpki(l2Misses, r.totalInstructions())),
        fmt(r.missCyclesPerKiloInstr()),
        fmt(r.energyPerKiloInstr()),
        std::to_string(mismatches),
        std::to_string(injected),
        std::to_string(r.shootdownEvents),
        fmt(r.profile.total()),
        fmt(r.simKips()),
    };
}

/** What the child reports back over the pipe. */
struct RunOutcome
{
    bool ok = false;
    std::vector<std::string> metrics;
    std::string error;
};

/**
 * The actual per-cell work, running inside the forked child. Never
 * throws: any exception becomes a failed outcome — and a crash or hang
 * beyond that only takes the child down, which is the point.
 */
RunOutcome
executeRun(const mc::McConfig &cfg, bool deliberateFail,
           bool deliberateHang, bool deliberateCrash)
{
    if (deliberateCrash) {
        // Testing aid for the retry/quarantine path: die on a signal,
        // not via an exception. SIGKILL rather than SIGSEGV so the
        // failure class is "signal" even under sanitizers (ASan
        // intercepts SIGSEGV and turns it into a nonzero exit).
        ::raise(SIGKILL);
    }
    RunOutcome out;
    try {
        if (deliberateHang) {
            // Testing aid for the watchdog: block until it fires.
            std::this_thread::sleep_for(std::chrono::hours(24));
        }
        if (deliberateFail)
            eat_fatal("deliberate failure requested (fail-cell)");
        const mc::McResult r = mc::mcSimulate(cfg);
        std::uint64_t mismatches = 0;
        std::string first;
        for (const auto &c : r.perCore) {
            mismatches += c.check.mismatches();
            if (first.empty())
                first = c.firstMismatch;
        }
        // A mismatch under injection is a successful detection; a
        // mismatch without injection means the simulator is wrong.
        if (cfg.base.faultSpec.empty() && mismatches > 0) {
            out.error = "self-check failed: " +
                        std::to_string(mismatches) +
                        " mismatches (first: " + first + ")";
            return out;
        }
        out.ok = true;
        out.metrics = metricCells(r);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

/** Pipe protocol: "OK\n" + one metric per line, or "ERR <message>\n". */
std::string
serialize(const RunOutcome &out)
{
    if (!out.ok)
        return "ERR " + out.error + "\n";
    std::string s = "OK\n";
    for (const auto &m : out.metrics)
        s += m + "\n";
    return s;
}

RunOutcome
deserialize(const std::string &payload)
{
    RunOutcome out;
    std::istringstream is(payload);
    std::string line;
    if (!std::getline(is, line)) {
        out.error = "child produced no result";
        return out;
    }
    if (line.rfind("ERR ", 0) == 0) {
        out.error = line.substr(4);
        return out;
    }
    if (line != "OK") {
        out.error = "garbled child result: " + line;
        return out;
    }
    while (std::getline(is, line))
        out.metrics.push_back(line);
    if (out.metrics.size() != kMetricCount) {
        out.error = "garbled child result: expected " +
                    std::to_string(kMetricCount) + " metrics, got " +
                    std::to_string(out.metrics.size());
        out.metrics.clear();
        return out;
    }
    out.ok = true;
    return out;
}

/** Turn one campaign outcome (live or replayed) into a CSV row. */
void
finishCell(const campaign::TaskOutcome &outcome, unsigned timeoutSeconds,
           BatchRow &row)
{
    using campaign::FailureClass;
    row.metrics.clear();
    row.error.clear();
    switch (outcome.failure) {
      case FailureClass::None:
        row.status = "ok";
        row.metrics = deserialize(outcome.payload).metrics;
        break;
      case FailureClass::BadPayload:
        row.status = "failed";
        row.error = deserialize(outcome.payload).error;
        break;
      case FailureClass::TimedOut:
        row.status = "timeout";
        row.error = campaign::describeFailure(outcome, timeoutSeconds);
        break;
      case FailureClass::NonzeroExit:
      case FailureClass::Crashed:
      case FailureClass::SpawnFailed:
        row.status = "failed";
        row.error = campaign::describeFailure(outcome, timeoutSeconds);
        break;
    }
    if (outcome.attempts > 1 && row.status != "ok") {
        row.error += " (after " + std::to_string(outcome.attempts) +
                     " attempts)";
    }
}

/**
 * Campaign identity for the checkpoint journal: the grid plus every
 * run knob, printed by the knob table. Deliberately excludes the
 * testing aids (failCell, kill-after), telemetry paths, and
 * scheduling knobs (jobs, timeout, retries) — none of those change
 * what a cell computes, and resume across them must keep working.
 */
std::string
sweepFingerprint(const BatchOptions &options,
                 const std::vector<BatchRow> &rows)
{
    std::string out = "eatbatch|v2";
    for (const auto &row : rows)
        out += "|" + row.workload + ":" + row.org;
    return out + mc::fingerprint(options.spec);
}

/**
 * Rewrite the whole results file through a temp file and rename it
 * into place, so readers only ever see a complete CSV.
 */
Status
writeCsvAtomic(const std::string &path, const std::vector<BatchRow> &rows)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return Status::error("cannot write ", tmp);
        stats::CsvWriter csv(out);
        csv.writeRow(batchCsvHeader());
        for (const auto &row : rows) {
            std::vector<std::string> cells{row.workload, row.org,
                                           row.status};
            cells.insert(cells.end(), row.metrics.begin(),
                         row.metrics.end());
            cells.resize(3 + kMetricCount); // pad failed rows
            cells.push_back(row.error);
            csv.writeRow(cells);
        }
        out.flush();
        if (!out)
            return Status::error("write failure on ", tmp,
                                 " (disk full?)");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return Status::error("cannot rename ", tmp, " to ", path);
    }
    return Status();
}

} // namespace

const std::vector<std::string> &
batchCsvHeader()
{
    static const std::vector<std::string> header{
        "workload",        "org",
        "status",          "instructions",
        "l1_mpki",         "l2_mpki",
        "miss_cycles_pki", "energy_pj_pki",
        "check_mismatches", "faults_injected",
        "shootdowns",
        "wall_seconds",    "sim_kips",
        "error",
    };
    return header;
}

const std::vector<std::size_t> &
batchTimingColumns()
{
    // wall_seconds and sim_kips measure the host, not the simulated
    // machine; they are the only columns allowed to differ between
    // reruns or job counts.
    static const std::vector<std::size_t> cols = [] {
        std::vector<std::size_t> out;
        const auto &header = batchCsvHeader();
        for (std::size_t i = 0; i < header.size(); ++i) {
            if (header[i] == "wall_seconds" || header[i] == "sim_kips")
                out.push_back(i);
        }
        return out;
    }();
    return cols;
}

Result<BatchSummary>
runBatch(const BatchOptions &options, std::ostream &log)
{
    // Resolve the grid up front: an unusable sweep is an error, a bad
    // run later is data.
    std::vector<workloads::WorkloadSpec> specs;
    for (const auto &name : options.workloadNames) {
        const auto spec = workloads::findWorkload(name);
        if (!spec)
            return Status::error("unknown workload '", name, "'");
        specs.push_back(*spec);
    }
    if (specs.empty())
        return Status::error("no workloads selected");
    const std::vector<core::MmuOrg> &orgs =
        options.orgs.empty() ? core::allOrgs() : options.orgs;
    if (options.outPath.empty())
        return Status::error("no output path");

    // Multicore sweep: one mix (explicit, or the selected workloads)
    // per organization; the mix name labels the row.
    const bool mcMode = options.spec.multicore();
    std::vector<workloads::WorkloadSpec> mix = specs;
    if (mcMode && !options.spec.mixSpec.empty()) {
        auto parsed = mc::parseMixSpec(options.spec.mixSpec);
        if (!parsed.ok())
            return parsed.status();
        mix = std::move(parsed.value());
    }
    const std::string mixLabel = mc::mixName(mix);

    // The checkpoint journal is the only resume record: it holds every
    // settled cell, flushed per record, under the sweep's fingerprint.
    // Without one, a resume runs the whole grid.
    campaign::EngineOptions engine = options.engine;
    if (engine.journalPath.empty())
        engine.journalPath = options.outPath + ".journal";
    engine.resume =
        engine.resume && std::ifstream(engine.journalPath).good();

    BatchSummary summary;
    const std::size_t gridSize =
        (mcMode ? 1 : specs.size()) * orgs.size();
    const unsigned jobs = campaign::effectiveJobs(engine.jobs);
    const auto sweepStart = std::chrono::steady_clock::now();

    // Rows live at their grid index from the start, so whatever order
    // the pool finishes cells in, the CSV is ordered by cell index —
    // identical to a serial sweep. An empty status marks a cell whose
    // result is not in yet. A single-core cell is a one-core run of a
    // one-workload mix.
    std::vector<mc::RunSpec> cells;
    std::vector<BatchRow> rows(gridSize);
    for (std::size_t w = 0; w < (mcMode ? 1 : specs.size()); ++w) {
        for (const auto org : orgs) {
            mc::RunSpec cell = options.spec;
            cell.workload = mcMode ? mix.front().name : specs[w].name;
            cell.org = org;
            if (mcMode)
                cell.mixSpec = mixLabel;
            BatchRow &row = rows[cells.size()];
            row.workload = mcMode ? mixLabel : specs[w].name;
            row.org = std::string(core::orgName(org));
            cells.push_back(std::move(cell));
        }
    }

    /** Every finished row, in grid order. */
    auto finished = [&rows] {
        std::vector<BatchRow> out;
        for (const auto &row : rows) {
            if (!row.status.empty())
                out.push_back(row);
        }
        return out;
    };
    /** Persist every finished row atomically. */
    auto persist = [&] {
        return writeCsvAtomic(options.outPath, finished());
    };
    if (Status s = persist(); !s.ok())
        return s;

    std::size_t resumed = 0;       // replayed from the journal
    std::size_t completedRuns = 0; // executed (not resumed) and reaped

    /** One progress line + pool-aware heartbeat after a finished run. */
    auto logCompletion = [&](const BatchRow &row, std::size_t inFlight) {
        const std::size_t done = resumed + completedRuns;
        log << "[" << done << "/" << gridSize << "] " << row.workload
            << " x " << row.org << ": " << row.status;
        if (!row.error.empty())
            log << " (" << row.error << ")";
        log << "\n";

        // Heartbeat: progress, pool occupancy, and an ETA from the
        // pool's observed completion rate (which already reflects the
        // parallelism actually achieved).
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - sweepStart)
                .count();
        log << "heartbeat: " << done << "/" << gridSize << " cells, "
            << inFlight << " in flight (-j" << jobs << "), "
            << fmt(elapsed) << "s elapsed";
        const std::size_t liveTotal = gridSize - resumed;
        if (completedRuns < liveTotal && completedRuns > 0) {
            const double eta =
                elapsed / static_cast<double>(completedRuns) *
                static_cast<double>(liveTotal - completedRuns);
            log << ", ~" << fmt(eta) << "s remaining";
        }
        log << "\n";
    };

    // One campaign task per cell: the child runs the simulation and
    // reports metrics over its pipe; a crash, panic, or hang costs
    // exactly that cell. The cell label doubles as the checkpoint key.
    std::vector<campaign::EngineTask> tasks;
    tasks.reserve(gridSize);
    for (std::size_t index = 0; index < gridSize; ++index) {
        const BatchRow &row = rows[index];
        const std::string cell = row.workload + ":" + row.org;
        const bool wantFail = options.failCell == cell;
        const bool wantHang = options.failCell == cell + ":hang" ||
                              options.failCell == "hang:" + cell;
        const bool wantCrash = options.failCell == cell + ":crash";
        // Commas in the mix label would splinter a telemetry filename.
        std::string fileLabel = row.workload;
        for (auto &c : fileLabel) {
            if (c == ',')
                c = '+';
        }
        mc::McConfig mcc = cells[index].toMcConfig();
        if (!options.telemetryDir.empty()) {
            mcc.base.telemetryPath = options.telemetryDir + "/" +
                                     fileLabel + "_" + row.org + ".jsonl";
        }
        tasks.push_back({cell, [mcc, wantFail, wantHang, wantCrash] {
            return serialize(
                executeRun(mcc, wantFail, wantHang, wantCrash));
        }});
    }

    // Persist after every settled cell (replayed or live): an
    // interrupted sweep always leaves a complete CSV of everything
    // finished so far. A persist failure aborts the campaign.
    Status persistError;
    engine.fingerprint = sweepFingerprint(options, rows);
    engine.payloadOk = [](const std::string &payload) {
        return deserialize(payload).ok;
    };
    // Default acceptCheckpoint (successes only): failed and timed-out
    // cells re-run on resume.
    engine.acceptCheckpoint = nullptr;

    const auto engineRun = campaign::runEngine(
        engine, tasks,
        [&](std::size_t taskIndex, const campaign::TaskOutcome &outcome,
            std::size_t inFlight) {
            BatchRow &row = rows[taskIndex];
            finishCell(outcome, engine.timeoutSeconds, row);
            if (outcome.fromCheckpoint) {
                ++resumed;
                log << "[" << resumed + completedRuns << "/"
                    << gridSize << "] " << row.workload << " x "
                    << row.org << ": resumed\n";
            } else {
                if (row.status == "ok")
                    ++summary.ok;
                else if (row.status == "timeout")
                    ++summary.timedOut;
                else
                    ++summary.failed;
                ++completedRuns;
                logCompletion(row, inFlight);
            }
            if (Status s = persist(); !s.ok()) {
                persistError = s;
                return false;
            }
            return true;
        },
        log);
    if (!persistError.ok())
        return persistError;
    if (!engineRun.ok())
        return engineRun.status();
    summary.engine = engineRun.value();
    summary.rows = finished();
    return summary;
}

} // namespace eat::sim
