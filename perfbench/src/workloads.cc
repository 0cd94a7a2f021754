#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/config.hh"
#include "mc/mc_simulator.hh"
#include "qa/generator.hh"
#include "qa/oracles.hh"
#include "traced_sim.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace eat;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Work per pass. A run repeats whole passes for --seconds and reports
// medians over them, so every pass must be long enough to beat timer
// noise (seconds, not milliseconds) yet short enough that several fit
// into a run.
constexpr InstrCount kGridWindow = 1'000'000;
constexpr InstrCount kGridSkip = 100'000;
constexpr InstrCount kMildWindow = 4'000'000;
constexpr InstrCount kMildSkip = 400'000;
constexpr InstrCount kAuditWindow = 3'000'000; ///< per core
constexpr InstrCount kAuditSkip = 300'000;
constexpr InstrCount kAuditRemapInterval = 500'000;
constexpr std::uint64_t kAuditProvSample = 64;
/**
 * The campaign's scenario recipes (workload, organization, windows,
 * fault plan, ...) come from one fixed campaign seed, so every run
 * judges the same mix of work; --seed re-seeds each scenario's
 * simulation (operation stream, OS layout, fault draws).
 */
constexpr std::uint64_t kFuzzCampaignSeed = 1;
constexpr std::uint64_t kFuzzScenarios = 40;
constexpr unsigned kMinPasses = 5;

// The ledger: one cell re-run with one layer added at a time.
constexpr InstrCount kLedgerWindow = 2'000'000;
constexpr InstrCount kLedgerSkip = 200'000;
constexpr unsigned kLedgerRounds = 5;

/**
 * Figure 12's "other" workloads, a fixed subset of five SPEC and five
 * PARSEC programs spanning 50 MiB to 1.6 GiB of footprint.
 */
const char *const kMildWorkloads[] = {
    "bwaves", "gcc", "gamess", "milc", "perlbench",
    "blackscholes", "dedup", "fluidanimate", "freqmine", "x264"};

std::string
fnv64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

/**
 * The digests of one run: each call's digest must match the pinned
 * value (when the benchmark's files pin one for this workload and
 * seed) and every earlier pass's digest of the same call.
 */
class DigestBook
{
  public:
    explicit DigestBook(const RunOptions &options)
        : workload_(options.workload), seed_(options.seed)
    {
        if (options.digestsPath.empty())
            return;
        std::ifstream in(options.digestsPath);
        if (!in)
            throw std::runtime_error("cannot read pinned digests '" +
                                     options.digestsPath + "'");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string workload, key, hash;
            std::uint64_t seed = 0;
            if (!(fields >> workload >> seed >> key >> hash))
                throw std::runtime_error("malformed pinned digest line '" +
                                         line + "'");
            if (workload == workload_ && seed == seed_)
                pinned_[key] = hash;
        }
    }

    /** @return a failure reason, or "" when @p digest is as expected. */
    std::string
    check(const std::string &key, const std::string &digest)
    {
        const std::string hash = fnv64(digest);
        const auto [seen, fresh] = seen_.emplace(key, hash);
        if (!fresh && seen->second != hash)
            return key + ": digest changed between passes";
        const auto pin = pinned_.find(key);
        if (pin != pinned_.end() && pin->second != hash) {
            return key + ": digest " + hash + " drifted from pinned " +
                   pin->second;
        }
        return "";
    }

    /** Append every digest seen, in the pinned-file format. */
    void
    writePins(const std::string &path) const
    {
        std::ofstream out(path, std::ios::app);
        for (const auto &[key, hash] : seen_)
            out << workload_ << ' ' << seed_ << ' ' << key << ' ' << hash
                << '\n';
        if (!out)
            throw std::runtime_error("cannot write '" + path + "'");
    }

  private:
    std::string workload_;
    std::uint64_t seed_;
    std::map<std::string, std::string> pinned_;
    std::map<std::string, std::string> seen_;
};

/** Judged calls and failures; the first few reasons go to stderr. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    record(const std::string &failure)
    {
        ++attempted;
        if (failure.empty())
            return;
        if (++failed <= 5)
            std::cerr << "perfbench: FAILED " << failure << '\n';
    }
};

/** One single-core simulation of a workload. */
struct Cell
{
    std::string key;
    sim::SimConfig config;
};

sim::SimConfig
cellConfig(const std::string &workload, core::MmuOrg org, InstrCount window,
           InstrCount skip, std::uint64_t seed)
{
    sim::SimConfig cfg;
    const auto spec = workloads::findWorkload(workload);
    if (!spec)
        throw std::invalid_argument("unknown simulator workload " + workload);
    cfg.workload = *spec;
    cfg.mmu = core::MmuConfig::make(org);
    cfg.simulateInstructions = window;
    cfg.fastForwardInstructions = skip;
    cfg.seed = seed;
    return cfg;
}

std::string
cellKey(const sim::SimConfig &cfg)
{
    return cfg.workload.name + ":" + std::string(core::orgName(cfg.mmu.org));
}

/** Figure 10: the TLB-intensive suite under all six organizations. */
std::vector<Cell>
gridCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (const auto &spec : workloads::tlbIntensiveSuite()) {
        for (const auto org : core::allOrgs()) {
            auto cfg = cellConfig(spec.name, org, kGridWindow, kGridSkip,
                                  seed);
            cells.push_back({cellKey(cfg), std::move(cfg)});
        }
    }
    return cells;
}

/** Figure 12: low-MPKI workloads under THP and RMM_Lite. */
std::vector<Cell>
mildCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (const char *name : kMildWorkloads) {
        for (const auto org : {core::MmuOrg::Thp, core::MmuOrg::RmmLite}) {
            auto cfg = cellConfig(name, org, kMildWindow, kMildSkip, seed);
            cells.push_back({cellKey(cfg), std::move(cfg)});
        }
    }
    return cells;
}

/** The 2-core virtualized audit mix, every optional layer on. */
mc::McConfig
auditConfig(std::uint64_t seed, const std::string &scratchDir)
{
    qa::Scenario s;
    s.workload = "mcf";
    s.org = core::MmuOrg::TlbLite;
    s.simInstructions = kAuditWindow;
    s.fastForward = kAuditSkip;
    s.seed = seed;
    s.cores = 2;
    s.mixSpec = "mcf,canneal";
    s.remapInterval = kAuditRemapInterval;
    s.vmMode = "paged";
    s.coherence = "hw";
    s.l3Mode = "cache";
    auto cfg = s.toMcConfig();
    cfg.base.provenancePath = scratchDir + "/audit.prov.jsonl";
    cfg.base.provenanceSampleEvery = kAuditProvSample;
    cfg.base.telemetryPath = scratchDir + "/audit.telemetry.jsonl";
    return cfg;
}

void
removeStreams(const sim::SimConfig &cfg)
{
    for (const auto *path : {&cfg.provenancePath, &cfg.telemetryPath}) {
        if (!path->empty())
            std::filesystem::remove(*path);
    }
}

double
setupSeconds(const obs::StageTimings &timings)
{
    return timings.seconds("setup") + timings.seconds("fast-forward");
}

std::string
checkerFailure(const std::string &key, const sim::SimResult &r)
{
    if (r.check.mismatches() == 0)
        return "";
    return key + ": checker mismatch: " + r.firstMismatch;
}

/** "" when @p traced reproduces @p ref exactly, else what differs. */
std::string
fidelityGap(const std::string &key, const sim::SimResult &ref,
            const sim::SimResult &traced)
{
    const auto &a = ref.check;
    const auto &b = traced.check;
    if (ref.totalEnergy() != traced.totalEnergy())
        return key + ": traced dynamic energy differs from simulate()";
    if (a.translationChecks != b.translationChecks ||
        a.wayMaskAudits != b.wayMaskAudits ||
        a.mismatches() != b.mismatches())
        return key + ": traced checker counts differ from simulate()";
    if (qa::resultDigest(ref) != qa::resultDigest(traced))
        return key + ": traced MmuStats/energy digest differs from "
                     "simulate()";
    return "";
}

/**
 * Host-speed calibration. On a shared host the speed of one core swings
 * by up to 2x in episodes of seconds to minutes (other tenants on the
 * sibling hyperthread, memory contention). This fixed TLB-like kernel
 * (set-associative probes with LRU stamps over a skewed address stream,
 * a large table behind them), which no change to the simulator can
 * touch, runs between passes; each pass's times are scaled by how much
 * slower than nominal the kernel ran around it.
 */
double
calibrationKernelSeconds()
{
    constexpr unsigned kSets1 = 64, kSets2 = 512, kWays = 4;
    std::vector<std::uint64_t> tags1(kSets1 * kWays, ~0ull);
    std::vector<std::uint64_t> tags2(kSets2 * kWays, ~0ull);
    std::vector<std::uint64_t> stamps1(tags1.size()), stamps2(tags2.size());
    std::vector<std::uint64_t> table(1u << 20);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = i * 2654435761u;

    const auto lruWay = [](const std::uint64_t *stamps) {
        unsigned victim = 0;
        for (unsigned w = 1; w < kWays; ++w)
            victim = stamps[w] < stamps[victim] ? w : victim;
        return victim;
    };
    const auto probe = [](std::uint64_t *tags, std::uint64_t *stamps,
                          std::uint64_t page, std::uint64_t now) {
        bool hit = false;
        for (unsigned w = 0; w < kWays; ++w) {
            if (tags[w] == page) {
                stamps[w] = now;
                hit = true;
            }
        }
        return hit;
    };

    const auto start = Clock::now();
    std::uint64_t x = 88172645463325252ull, sum = 0;
    for (std::uint64_t now = 1; now <= 3'000'000; ++now) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t page =
            x % 100 < 80 ? (x >> 20) % 96 : (x >> 20) % table.size();
        std::uint64_t *t1 = &tags1[(page % kSets1) * kWays];
        std::uint64_t *s1 = &stamps1[(page % kSets1) * kWays];
        if (probe(t1, s1, page, now))
            continue;
        std::uint64_t *t2 = &tags2[(page % kSets2) * kWays];
        std::uint64_t *s2 = &stamps2[(page % kSets2) * kWays];
        if (!probe(t2, s2, page, now)) {
            sum += table[page];
            const unsigned v = lruWay(s2);
            t2[v] = page;
            s2[v] = now;
        }
        const unsigned v = lruWay(s1);
        t1[v] = page;
        s1[v] = now;
    }
    const double seconds = secondsSince(start);
    volatile std::uint64_t keep = sum;
    (void)keep;
    return seconds;
}

/** calibrationKernelSeconds() on an uncontended core of the host the
 *  benchmark was built on (4-vCPU Intel Xeon VM). */
constexpr double kNominalKernelSeconds = 0.1;

/** Totals of one pass over a workload's calls. */
struct Pass
{
    double callSeconds = 0.0;  ///< whole simulate/mcSimulate calls
    double judgeSeconds = 0.0; ///< time to judge the pass's units
    double setupSeconds = 0.0; ///< set-up + fast-forward stages
    std::uint64_t instructions = 0;
    std::uint64_t units = 0;   ///< cells or scenarios judged
    /** Calibration kernel's time around the pass over its nominal. */
    double hostSlowdown = 1.0;
};

/**
 * Repeat @p pass until @p seconds are spent (at least @p minPasses),
 * with the calibration kernel before the first pass and after each.
 */
std::vector<Pass>
timedPasses(double seconds, unsigned minPasses,
            const std::function<Pass()> &pass)
{
    std::vector<Pass> passes;
    const auto start = Clock::now();
    double before = calibrationKernelSeconds();
    for (;;) {
        Pass p = pass();
        const double after = calibrationKernelSeconds();
        p.hostSlowdown = (before + after) / 2.0 / kNominalKernelSeconds;
        before = after;
        passes.push_back(p);
        const double elapsed = secondsSince(start);
        const double perPass = elapsed / static_cast<double>(passes.size());
        if (passes.size() >= minPasses && elapsed + perPass > seconds)
            return passes;
    }
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric>
endToEndMetrics(const std::vector<Pass> &passes)
{
    // Times are in nominal-host seconds: measured seconds divided by
    // the pass's host slowdown.
    std::vector<double> kips, setup, rate;
    for (const auto &p : passes) {
        const double rawKips =
            static_cast<double>(p.instructions) / 1000.0 / p.callSeconds;
        kips.push_back(rawKips * p.hostSlowdown);
        setup.push_back(p.setupSeconds / p.hostSlowdown);
        rate.push_back(static_cast<double>(p.units) / p.judgeSeconds *
                       p.hostSlowdown);
        std::cerr << "perfbench: pass " << kips.size() << ": "
                  << p.units << " units, " << p.callSeconds
                  << " s in calls, " << rawKips << " sim-KIPS, setup "
                  << p.setupSeconds << " s, host slowdown "
                  << p.hostSlowdown << '\n';
    }
    return {{"sim_kips", median(kips), "kinstr/s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"scenarios_per_s", median(rate), "1/s"}};
}

/**
 * Simulated work of a traced run's first pass. Later passes only add
 * span samples: counting them too would make the counts depend on how
 * many passes fit into --seconds.
 */
struct Counts
{
    std::uint64_t memOps = 0;
    std::uint64_t frontHits = 0;
    std::uint64_t liteIntervals = 0;
    std::uint64_t walks = 0;
    std::uint64_t hostWalkRefs = 0;
    std::uint64_t l3Probes = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t provEvents = 0;
    std::uint64_t telemetryRecords = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t cohProbes = 0;

    void
    add(const sim::SimResult &r)
    {
        memOps += r.stats.memOps;
        frontHits += r.frontCacheHits;
        liteIntervals += r.lite.intervals;
        walks += r.stats.l2Misses - r.stats.l3Hits;
        hostWalkRefs += r.stats.hostWalkMemRefs;
        l3Probes += r.stats.l3Probes;
        l3Hits += r.stats.l3Hits;
        provEvents += r.provenance.events;
        telemetryRecords += r.telemetryRecords;
    }

    void
    add(const mc::McResult &r)
    {
        for (const auto &core : r.perCore) {
            hostWalkRefs += core.stats.hostWalkMemRefs;
            contextSwitches += core.stats.contextSwitches;
        }
        // One sink serves every core; each core's result repeats it.
        if (!r.perCore.empty())
            telemetryRecords += r.perCore.front().telemetryRecords;
        provEvents += r.provenance.events;
        shootdowns += r.shootdownEvents;
        cohProbes += r.coherenceProbes;
    }
};

/** Everything a traced run accumulates across its calls. */
struct TraceState
{
    LayerSpans spans;
    SpanSamples generate; ///< qa::generateScenario (s)
    SpanSamples oracles;  ///< qa::runOracles (s)

    bool firstPass = true;
    Counts counts;

    std::uint64_t tracedCells = 0;
    double refSeconds = 0.0;    ///< untraced simulate() of traced cells
    double tracedSeconds = 0.0; ///< tracedSimulate() of the same cells
    std::uint64_t refInstructions = 0;
    std::uint64_t tracedInstructions = 0;

    template <class Result>
    void
    count(const Result &r)
    {
        if (firstPass)
            counts.add(r);
    }

    /** simulate() and the traced driver on one cell; checks fidelity. */
    std::string
    traceCell(const std::string &key, const sim::SimConfig &cfg,
              DigestBook &book)
    {
        auto start = Clock::now();
        const auto ref = sim::simulate(cfg);
        refSeconds += secondsSince(start);
        refInstructions += ref.stats.instructions;
        removeStreams(cfg);

        start = Clock::now();
        const auto traced = tracedSimulate(cfg, spans);
        tracedSeconds += secondsSince(start);
        tracedInstructions += traced.stats.instructions;
        removeStreams(cfg);
        ++tracedCells;
        count(traced);

        std::string failure = fidelityGap(key, ref, traced);
        if (failure.empty() && cfg.faultSpec.empty())
            failure = checkerFailure(key, ref);
        if (failure.empty())
            failure = book.check(key, qa::resultDigest(ref));
        return failure;
    }
};

/** Run @p body, turning a thrown simulator error into a failure. */
std::string
guarded(const std::string &key, const std::function<std::string()> &body)
{
    try {
        return body();
    } catch (const std::exception &e) {
        return key + ": " + e.what();
    }
}

// ---------------------------------------------------------------- passes

Pass
cellsPass(const std::vector<Cell> &cells, DigestBook &book, Tally &tally)
{
    Pass pass;
    for (const auto &cell : cells) {
        tally.record(guarded(cell.key, [&] {
            const auto start = Clock::now();
            const auto r = sim::simulate(cell.config);
            pass.callSeconds += secondsSince(start);
            pass.setupSeconds += setupSeconds(r.profile);
            pass.instructions += r.stats.instructions;
            ++pass.units;
            const auto failure = checkerFailure(cell.key, r);
            return failure.empty()
                       ? book.check(cell.key, qa::resultDigest(r))
                       : failure;
        }));
    }
    pass.judgeSeconds = pass.callSeconds;
    return pass;
}

std::string
mcFailure(const std::string &key, const mc::McResult &r, DigestBook &book)
{
    for (const auto &core : r.perCore) {
        const auto failure = checkerFailure(key, core);
        if (!failure.empty())
            return failure;
    }
    return book.check(key, qa::mcResultDigest(r));
}

Pass
auditPass(const mc::McConfig &cfg, DigestBook &book, Tally &tally,
          TraceState *trace)
{
    Pass pass;
    const std::string key = "mix:mcf,canneal";
    tally.record(guarded(key, [&] {
        const auto start = Clock::now();
        const auto r = mc::mcSimulate(cfg);
        pass.callSeconds += secondsSince(start);
        removeStreams(cfg.base);
        pass.setupSeconds += setupSeconds(r.profile);
        pass.instructions += r.totalInstructions();
        ++pass.units;
        if (trace)
            trace->count(r);
        return mcFailure(key, r, book);
    }));
    pass.judgeSeconds = pass.callSeconds;
    return pass;
}

/** Generate and judge the campaign's scenarios under @p seed. */
Pass
fuzzPass(std::uint64_t seed, DigestBook &book, Tally &tally,
         TraceState *trace)
{
    Pass pass;
    for (std::uint64_t i = 0; i < kFuzzScenarios; ++i) {
        const std::string key = "scenario:" + std::to_string(i);
        tally.record(guarded(key, [&]() -> std::string {
            const auto start = Clock::now();
            auto scenario = qa::generateScenario(kFuzzCampaignSeed, i);
            scenario.seed ^= seed * 0x9e3779b97f4a7c15ull;
            const double generated = secondsSince(start);
            const auto verdict = qa::runOracles(scenario);
            const double judged = secondsSince(start);
            pass.judgeSeconds += judged;
            ++pass.units;
            if (trace) {
                trace->generate.add(generated);
                trace->oracles.add(judged - generated);
            }
            if (!verdict.passed())
                return key + " (" + scenario.describe() +
                       "): " + verdict.violations.front();

            // Replay the primary run outside the oracles: its digest
            // must equal the verdict's, and its stage timings give the
            // campaign's set-up share.
            std::string digest;
            const auto replayStart = Clock::now();
            if (scenario.multicore()) {
                const auto r = mc::mcSimulate(scenario.toMcConfig());
                pass.callSeconds += secondsSince(replayStart);
                pass.setupSeconds += setupSeconds(r.profile);
                pass.instructions += r.totalInstructions();
                digest = qa::mcResultDigest(r);
                if (trace)
                    trace->count(r);
            } else {
                const auto cfg = scenario.toSimConfig();
                const auto r = sim::simulate(cfg);
                pass.callSeconds += secondsSince(replayStart);
                pass.setupSeconds += setupSeconds(r.profile);
                pass.instructions += r.stats.instructions;
                digest = qa::resultDigest(r);
                if (trace) {
                    const auto failure = trace->traceCell(key, cfg, book);
                    if (!failure.empty())
                        return failure;
                }
            }
            if (digest != verdict.digest)
                return key + ": replay digest differs from the verdict's";
            return book.check(key, digest);
        }));
    }
    return pass;
}

// ---------------------------------------------------------------- ledger

/** ns per memory operation of the generator alone (no Mmu). */
double
generatorNsPerOp(const sim::SimConfig &cfg)
{
    auto mm = buildMemoryManager(cfg);
    workloads::WorkloadGenerator gen(cfg.workload, mm, cfg.seed);
    gen.skip(cfg.fastForwardInstructions);
    const InstrCount end = gen.instructionsRetired() + cfg.simulateInstructions;
    std::uint64_t ops = 0;
    Addr sink = 0;
    const auto start = Clock::now();
    while (gen.instructionsRetired() < end) {
        sink ^= gen.next().vaddr;
        ++ops;
    }
    const double seconds = secondsSince(start);
    // Keep the loop's result observable so it cannot be folded away.
    volatile Addr keep = sink;
    (void)keep;
    return seconds * 1e9 / static_cast<double>(ops);
}

/** The ledger rows, each adding one layer to the previous row. */
struct LedgerRow
{
    const char *name;
    std::function<void(sim::SimConfig &)> add;
};

std::vector<LedgerRow>
ledgerRows(const std::string &scratchDir)
{
    return {
        {"check_off",
         [](sim::SimConfig &c) { c.checkLevel = check::CheckLevel::Off; }},
        {"check_paddr",
         [](sim::SimConfig &c) { c.checkLevel = check::CheckLevel::Paddr; }},
        {"check_full",
         [](sim::SimConfig &c) { c.checkLevel = check::CheckLevel::Full; }},
        {"prov_idle", [](sim::SimConfig &c) { c.provenanceEnabled = true; }},
        {"prov_sample64",
         [scratchDir](sim::SimConfig &c) {
             c.provenancePath = scratchDir + "/ledger.prov.jsonl";
             c.provenanceSampleEvery = 64;
         }},
        {"telemetry",
         [scratchDir](sim::SimConfig &c) {
             c.telemetryPath = scratchDir + "/ledger.telemetry.jsonl";
         }},
        {"l3_cache",
         [](sim::SimConfig &c) { c.mmu.enableL3(l3::L3Mode::Cache); }},
    };
}

/** The ledger's rows plus two layer costs taken from it. */
struct Ledger
{
    std::vector<Metric> rows;
    /** Paired per-round differences on mcf x RMM_Lite (the profiled
     *  cell): rows of one round run back to back, so a difference
     *  within a round cancels most host drift. */
    double checkNsPerMemop = 0.0; ///< check_full - check_off
    double provNsPerMemop = 0.0;  ///< prov_sample64 - check_full
};

/** ledger.<cell>.<row>_ns for mcf x RMM_Lite and mcf x 4KB. */
Ledger
runLedger(const RunOptions &options, Tally &tally)
{
    Ledger ledger;
    const auto rows = ledgerRows(options.scratchDir);
    const auto rowIndex = [&](std::string_view name) {
        const auto it = std::find_if(rows.begin(), rows.end(),
                                     [&](const auto &r) { return r.name == name; });
        return static_cast<std::size_t>(it - rows.begin());
    };
    for (const auto org : {core::MmuOrg::RmmLite, core::MmuOrg::Base4K}) {
        const auto base =
            cellConfig("mcf", org, kLedgerWindow, kLedgerSkip, options.seed);
        const std::string prefix =
            "ledger.mcf_" + std::string(core::orgName(org)) + ".";
        std::vector<double> generator;
        std::vector<std::vector<double>> perRow(rows.size());
        std::vector<double> checkCost, provCost;
        // Rounds interleave the rows so host drift hits all alike.
        for (unsigned round = 0; round < kLedgerRounds; ++round) {
            generator.push_back(generatorNsPerOp(base));
            auto cfg = base;
            for (std::size_t i = 0; i < rows.size(); ++i) {
                rows[i].add(cfg);
                const std::string key = prefix + rows[i].name;
                tally.record(guarded(key, [&] {
                    const auto r = sim::simulate(cfg);
                    removeStreams(cfg);
                    perRow[i].push_back(r.profile.seconds("simulate") * 1e9 /
                                        static_cast<double>(r.stats.memOps));
                    return checkerFailure(key, r);
                }));
            }
            const auto last = [&](std::string_view name) {
                const auto &values = perRow[rowIndex(name)];
                return values.empty() ? 0.0 : values.back();
            };
            checkCost.push_back(last("check_full") - last("check_off"));
            provCost.push_back(last("prov_sample64") - last("check_full"));
        }
        if (org == core::MmuOrg::RmmLite) {
            ledger.checkNsPerMemop = median(checkCost);
            ledger.provNsPerMemop = median(provCost);
        }
        ledger.rows.push_back({prefix + "generator_ns", median(generator),
                               "ns/memop"});
        for (std::size_t i = 0; i < rows.size(); ++i) {
            ledger.rows.push_back({prefix + rows[i].name + "_ns",
                                   median(perRow[i]), "ns/memop"});
        }
    }
    return ledger;
}

// ---------------------------------------------------------------- report

void
addHistogram(std::vector<Metric> &out, const std::string &name,
             const SpanHistogram &h, double scale, const std::string &unit)
{
    out.push_back({name, h.quantile(0.5) * scale, unit});
    out.push_back({name + ".tail", h.quantile(tailQuantileFor(h.count())) *
                                       scale,
                   unit});
    out.push_back({name + ".n", static_cast<double>(h.count()), "count"});
}

void
addSamples(std::vector<Metric> &out, const std::string &name,
           const SpanSamples &s, double scale, const std::string &unit)
{
    out.push_back({name, s.quantile(0.5) * scale, unit});
    out.push_back({name + ".tail", s.quantile(tailQuantileFor(s.count())) *
                                       scale,
                   unit});
    out.push_back({name + ".n", static_cast<double>(s.count()), "count"});
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
perLayerMetrics(const TraceState &t, const Ledger &ledger)
{
    const auto &s = t.spans;
    const auto &c = t.counts;
    std::vector<Metric> out;
    addHistogram(out, "workloads.next_ns", s.next, 1.0, "ns");
    addHistogram(out, "core.access_l1_ns", s.accessL1, 1.0, "ns");
    addHistogram(out, "core.access_l2_ns", s.accessL2, 1.0, "ns");
    addHistogram(out, "core.access_walk_ns", s.accessWalk, 1.0, "ns");
    addHistogram(out, "l3.access_ns", s.accessL3, 1.0, "ns");
    addHistogram(out, "core.tick_ns", s.tick, 1.0, "ns");
    addHistogram(out, "lite.interval_us", s.tickInterval, 1e-3, "us");
    const auto count = [&](const char *name, std::uint64_t v) {
        out.push_back({name, static_cast<double>(v), "count"});
    };
    const double memOps = static_cast<double>(c.memOps);
    count("lite.intervals", c.liteIntervals);
    out.push_back({"core.front_hit_rate",
                   ratio(static_cast<double>(c.frontHits), memOps), "ratio"});
    out.push_back({"core.walk_share",
                   ratio(static_cast<double>(c.walks), memOps), "ratio"});
    out.push_back({"l3.hit_rate",
                   ratio(static_cast<double>(c.l3Hits),
                         static_cast<double>(c.l3Probes)),
                   "ratio"});
    count("vm.host_walk_refs", c.hostWalkRefs);
    count("obs.prov_events", c.provEvents);
    count("obs.telemetry_records", c.telemetryRecords);
    count("mc.context_switches", c.contextSwitches);
    count("mc.shootdowns", c.shootdowns);
    count("mc.coh_probes", c.cohProbes);

    addSamples(out, "vm.mm_build_s", s.mmBuild, 1.0, "s");
    addSamples(out, "workloads.build_s", s.genBuild, 1.0, "s");
    addSamples(out, "core.build_s", s.mmuBuild, 1.0, "s");
    addSamples(out, "check.build_s", s.checkBuild, 1.0, "s");
    addSamples(out, "workloads.skip_s", s.skip, 1.0, "s");
    addSamples(out, "qa.generate_us", t.generate, 1e6, "us");
    addSamples(out, "qa.oracles_ms", t.oracles, 1e3, "ms");

    out.push_back({"check.ns_per_memop", ledger.checkNsPerMemop,
                   "ns/memop"});
    out.push_back({"obs.prov_ns_per_memop", ledger.provNsPerMemop,
                   "ns/memop"});
    out.insert(out.end(), ledger.rows.begin(), ledger.rows.end());

    const double untraced =
        ratio(static_cast<double>(t.refInstructions) / 1000.0, t.refSeconds);
    const double traced =
        ratio(static_cast<double>(t.tracedInstructions) / 1000.0,
              t.tracedSeconds);
    out.push_back({"trace.untraced_sim_kips", untraced, "kinstr/s"});
    out.push_back({"trace.traced_sim_kips", traced, "kinstr/s"});
    out.push_back({"trace.overhead", ratio(untraced, traced), "ratio"});
    out.push_back({"trace.span_floor_ns", s.floor.quantile(0.5), "ns"});
    out.push_back({"trace.traced_cells", static_cast<double>(t.tracedCells),
                   "count"});
    return out;
}

/** Where the traced window's time went, for the benchmark's doc. */
void
printSplit(const std::string &workload, const TraceState &t)
{
    const auto &s = t.spans;
    const double floor = s.floor.quantile(0.5);
    struct Part
    {
        const char *name;
        const SpanHistogram *h;
    };
    const Part parts[] = {
        {"WorkloadGenerator::next", &s.next},
        {"Mmu::tick (no interval)", &s.tick},
        {"Mmu::tick (Lite interval)", &s.tickInterval},
        {"Mmu::access L1 hit", &s.accessL1},
        {"Mmu::access L2 hit", &s.accessL2},
        {"Mmu::access L3 probe", &s.accessL3},
        {"Mmu::access walk", &s.accessWalk},
    };
    double total = 0.0;
    for (const auto &p : parts)
        total += static_cast<double>(p.h->sumNs()) -
                 floor * static_cast<double>(p.h->count());
    std::cerr << "perfbench: traced split of " << workload << " ("
              << t.tracedCells << " cells, span floor " << floor
              << " ns subtracted)\n";
    for (const auto &p : parts) {
        const double self = static_cast<double>(p.h->sumNs()) -
                            floor * static_cast<double>(p.h->count());
        std::cerr << "  " << std::left << std::setw(28) << p.name
                  << std::right << std::setw(7) << std::fixed
                  << std::setprecision(1) << 100.0 * ratio(self, total)
                  << " %  n=" << p.h->count() << '\n';
    }
    std::cerr.unsetf(std::ios::floatfield);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "fig10-grid", "fig12-mild", "virt-mc-audit", "fuzz-campaign"};
    return names;
}

RunReport
runWorkload(const RunOptions &options)
{
    const std::string &name = options.workload;
    if (std::find(workloadNames().begin(), workloadNames().end(), name) ==
        workloadNames().end())
        throw std::invalid_argument("unknown workload '" + name + "'");
    std::filesystem::create_directories(options.scratchDir);

    DigestBook book(options);
    Tally tally;
    RunReport report;

    if (!options.trace) {
        std::function<Pass()> pass;
        std::vector<Cell> cells;
        mc::McConfig audit;
        if (name == "fig10-grid" || name == "fig12-mild") {
            cells = name == "fig10-grid" ? gridCells(options.seed)
                                         : mildCells(options.seed);
            pass = [&] { return cellsPass(cells, book, tally); };
        } else if (name == "virt-mc-audit") {
            audit = auditConfig(options.seed, options.scratchDir);
            pass = [&] { return auditPass(audit, book, tally, nullptr); };
        } else {
            pass = [&] { return fuzzPass(options.seed, book, tally, nullptr); };
        }
        report.metrics =
            endToEndMetrics(timedPasses(options.seconds, kMinPasses, pass));
    } else {
        // One traced pass at least, repeated while --seconds last;
        // then the ledger. The spans accumulate across passes.
        TraceState trace;
        std::vector<Cell> cells;
        std::optional<mc::McConfig> audit;
        if (name == "fig10-grid" || name == "fig12-mild") {
            cells = name == "fig10-grid" ? gridCells(options.seed)
                                         : mildCells(options.seed);
        } else if (name == "virt-mc-audit") {
            // The mix runs the multicore driver untraced; each mix
            // member then runs as a traced single-core cell with the
            // same MMU and output configuration.
            audit = auditConfig(options.seed, options.scratchDir);
            for (const auto &spec : audit->mix) {
                auto cfg = audit->base;
                cfg.workload = spec;
                cells.push_back({spec.name + ":audit", std::move(cfg)});
            }
        }
        timedPasses(options.seconds, 1, [&] {
            if (audit)
                auditPass(*audit, book, tally, &trace);
            if (name == "fuzz-campaign")
                fuzzPass(options.seed, book, tally, &trace);
            for (const auto &cell : cells) {
                tally.record(guarded(cell.key, [&] {
                    return trace.traceCell(cell.key, cell.config, book);
                }));
            }
            trace.firstPass = false;
            return Pass{};
        });
        const auto ledger = runLedger(options, tally);
        printSplit(name, trace);
        report.metrics = perLayerMetrics(trace, ledger);
    }

    if (!options.pinOutPath.empty())
        book.writePins(options.pinOutPath);
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    return report;
}

} // namespace perfbench
