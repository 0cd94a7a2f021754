/**
 * @file
 * End-to-end simulator tests: every organization runs every mechanism
 * path, results are reproducible, and the headline invariants of the
 * paper hold on short runs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "qa/oracles.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"
#include "scratch_dir.hh"

namespace eat::sim
{
namespace
{

SimConfig
quickConfig(const std::string &workload, core::MmuOrg org,
            InstrCount instructions = 2'000'000)
{
    SimConfig cfg;
    cfg.workload = *workloads::findWorkload(workload);
    cfg.mmu = core::MmuConfig::make(org);
    cfg.fastForwardInstructions = 100'000;
    cfg.simulateInstructions = instructions;
    return cfg;
}

TEST(Simulator, SmokeAllOrgs)
{
    for (const auto org : core::allOrgs()) {
        const auto r = simulate(quickConfig("omnetpp", org, 500'000));
        EXPECT_EQ(r.org, org);
        EXPECT_EQ(r.workloadName, "omnetpp");
        EXPECT_GE(r.stats.instructions, 500'000u);
        EXPECT_GT(r.stats.memOps, 0u);
        EXPECT_GT(r.totalEnergy(), 0.0);
        EXPECT_GT(r.energyPerKiloInstr(), 0.0);
    }
}

TEST(Simulator, BitIdenticalReruns)
{
    const auto a = simulate(quickConfig("astar", core::MmuOrg::RmmLite));
    const auto b = simulate(quickConfig("astar", core::MmuOrg::RmmLite));
    EXPECT_EQ(a.stats.memOps, b.stats.memOps);
    EXPECT_EQ(a.stats.l1Misses, b.stats.l1Misses);
    EXPECT_EQ(a.stats.l2Misses, b.stats.l2Misses);
    EXPECT_DOUBLE_EQ(a.totalEnergy(), b.totalEnergy());
    EXPECT_EQ(a.lite.wayDisableEvents, b.lite.wayDisableEvents);
}

TEST(Simulator, SeedChangesTheRun)
{
    auto cfg = quickConfig("astar", core::MmuOrg::Thp);
    const auto a = simulate(cfg);
    cfg.seed = 1234;
    const auto b = simulate(cfg);
    EXPECT_NE(a.stats.l1Misses, b.stats.l1Misses);
}

TEST(Simulator, TimelineRecordsIntervals)
{
    auto cfg = quickConfig("mcf", core::MmuOrg::Base4K, 1'000'000);
    cfg.timelineInterval = 100'000;
    const auto r = simulate(cfg);
    EXPECT_GE(r.mpkiTimeline.numSamples(), 9u);
    EXPECT_LE(r.mpkiTimeline.numSamples(), 11u);
    EXPECT_GT(r.mpkiTimeline.mean(), 0.0);
}

TEST(Simulator, TimelineFlushesFinalPartialWindow)
{
    // 250k instructions at a 100k interval: two full windows plus a
    // ~50k tail that must not be dropped.
    auto cfg = quickConfig("mcf", core::MmuOrg::Base4K, 250'000);
    cfg.timelineInterval = 100'000;
    const auto r = simulate(cfg);
    EXPECT_EQ(r.mpkiTimeline.numSamples(), 3u);
}

/** Read one whole file (test helper; missing file fails the caller). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(Simulator, MetricsRegistryMatchesLegacyStats)
{
    const std::string path = test::scratchDir() + "eat_sim_metrics.json";
    auto cfg = quickConfig("mcf", core::MmuOrg::TlbLite, 1'000'000);
    cfg.metricsPath = path;
    const auto r = simulate(cfg);

    const auto parsed = obs::parseJson(slurp(path));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const obs::JsonValue &doc = parsed.value();
    EXPECT_EQ(doc.find("schema")->string, obs::kMetricsSchema);

    const obs::JsonValue *m = doc.find("metrics");
    ASSERT_NE(m, nullptr);
    auto counter = [m](std::string_view name) -> std::uint64_t {
        const obs::JsonValue *v = m->find(name);
        EXPECT_NE(v, nullptr) << "missing metric " << name;
        return v ? static_cast<std::uint64_t>(v->number) : 0;
    };

    // The registry is a view over the same state MmuStats aggregates.
    EXPECT_EQ(counter("mmu.instructions"), r.stats.instructions);
    EXPECT_EQ(counter("mmu.mem_ops"), r.stats.memOps);
    EXPECT_EQ(counter("mmu.l1_hits"), r.stats.l1Hits);
    EXPECT_EQ(counter("mmu.l1_misses"), r.stats.l1Misses);
    EXPECT_EQ(counter("mmu.l2_misses"), r.stats.l2Misses);
    EXPECT_EQ(counter("mmu.walk_cycles"), r.stats.walkCycles);
    EXPECT_EQ(counter("mmu.hits.page_walk"),
              r.stats.hits(core::HitSource::PageWalk));
    EXPECT_EQ(counter("lite.intervals"), r.lite.intervals);
    EXPECT_EQ(counter("lite.way_disable_events"),
              r.lite.wayDisableEvents);
    EXPECT_EQ(counter("check.translation_checks"),
              r.check.translationChecks);
    EXPECT_NEAR(m->find("energy.dynamic_pj")->number, r.totalEnergy(),
                1e-6 * r.totalEnergy());
}

TEST(Simulator, TelemetryStreamsOneParseableRecordPerInterval)
{
    const std::string path = test::scratchDir() + "eat_sim_tel.jsonl";
    auto cfg = quickConfig("mcf", core::MmuOrg::TlbLite, 3'000'000);
    cfg.telemetryPath = path;
    const auto r = simulate(cfg);

    // The sink closed one record per Lite interval.
    EXPECT_EQ(r.telemetryRecords, r.lite.intervals);
    EXPECT_GE(r.telemetryRecords, 3u);

    std::istringstream lines(slurp(path));
    std::string line;
    std::uint64_t parsedCount = 0;
    std::uint64_t instrTotal = 0;
    while (std::getline(lines, line)) {
        const auto parsed = obs::parseJson(line);
        ASSERT_TRUE(parsed.ok())
            << parsed.status().message() << " in: " << line;
        const obs::JsonValue &v = parsed.value();
        EXPECT_EQ(v.find("schema")->string, obs::kTelemetrySchema);
        EXPECT_DOUBLE_EQ(v.find("v")->number, obs::kTelemetryVersion);
        EXPECT_DOUBLE_EQ(v.find("interval")->number,
                         static_cast<double>(parsedCount));
        EXPECT_DOUBLE_EQ(v.find("start_instr")->number,
                         static_cast<double>(instrTotal));
        instrTotal +=
            static_cast<std::uint64_t>(v.find("instructions")->number);
        ASSERT_NE(v.find("way_mask"), nullptr);
        EXPECT_NE(v.find("way_mask")->find("L1-4KB TLB"), nullptr);
        ++parsedCount;
    }
    EXPECT_EQ(parsedCount, r.telemetryRecords);
    EXPECT_LE(instrTotal, r.stats.instructions);
}

TEST(Simulator, TraceOutIsStructurallyValidChromeTrace)
{
    const std::string path = test::scratchDir() + "eat_sim_trace.json";
    auto cfg = quickConfig("astar", core::MmuOrg::TlbLite, 3'000'000);
    cfg.traceOutPath = path;
    const auto r = simulate(cfg);
    EXPECT_GT(r.traceEvents, 0u);
    EXPECT_EQ(r.traceEventsDropped, 0u);

    const auto parsed = obs::parseJson(slurp(path));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const obs::JsonValue *events = parsed.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    double lastTs = -1.0;
    for (const obs::JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        ASSERT_NE(e.find("ph"), nullptr);
        if (e.find("ph")->string == "M")
            continue;
        const double ts = e.find("ts")->number;
        EXPECT_GE(ts, lastTs);
        lastTs = ts;
    }
}

TEST(Simulator, ObservabilityOutputsDoNotPerturbResults)
{
    auto plain = quickConfig("astar", core::MmuOrg::TlbLite, 1'000'000);
    const auto a = simulate(plain);

    auto instrumented = plain;
    instrumented.metricsPath = test::scratchDir() + "eat_sim_m2.json";
    instrumented.telemetryPath =
        test::scratchDir() + "eat_sim_t2.jsonl";
    instrumented.traceOutPath = test::scratchDir() + "eat_sim_c2.json";
    const auto b = simulate(instrumented);

    // Observation must be passive: bit-identical simulated behaviour.
    EXPECT_EQ(a.stats.memOps, b.stats.memOps);
    EXPECT_EQ(a.stats.l1Misses, b.stats.l1Misses);
    EXPECT_EQ(a.stats.l2Misses, b.stats.l2Misses);
    EXPECT_DOUBLE_EQ(a.totalEnergy(), b.totalEnergy());
    EXPECT_EQ(a.lite.wayDisableEvents, b.lite.wayDisableEvents);
}

TEST(Simulator, ProfilePopulated)
{
    const auto r = simulate(quickConfig("astar", core::MmuOrg::Thp,
                                        300'000));
    EXPECT_GE(r.profile.stages.size(), 3u);
    EXPECT_GT(r.profile.seconds("simulate"), 0.0);
    EXPECT_GT(r.profile.total(), 0.0);
    EXPECT_GT(r.simKips(), 0.0);
}

TEST(Simulator, OsFactsFollowPolicy)
{
    const auto thp = simulate(quickConfig("mcf", core::MmuOrg::Thp,
                                          200'000));
    EXPECT_GT(thp.pages2M, 0u);
    EXPECT_EQ(thp.numRanges, 0u);

    const auto rmmLite =
        simulate(quickConfig("mcf", core::MmuOrg::RmmLite, 200'000));
    EXPECT_EQ(rmmLite.pages2M, 0u); // RMM_Lite maps 4 KB pages only
    EXPECT_GT(rmmLite.numRanges, 0u);
    EXPECT_DOUBLE_EQ(rmmLite.rangeCoverage, 1.0); // perfect eager paging

    const auto base = simulate(quickConfig("mcf", core::MmuOrg::Base4K,
                                           200'000));
    EXPECT_EQ(base.pages2M, 0u);
    EXPECT_EQ(base.numRanges, 0u);
}

TEST(Simulator, PaperInvariantsOnShortRuns)
{
    // mcf, 2M instructions: enough for the shape invariants.
    const auto base = simulate(quickConfig("mcf", core::MmuOrg::Base4K));
    const auto thp = simulate(quickConfig("mcf", core::MmuOrg::Thp));
    const auto rmm = simulate(quickConfig("mcf", core::MmuOrg::Rmm));
    const auto rmmLite =
        simulate(quickConfig("mcf", core::MmuOrg::RmmLite));

    // THP slashes miss cycles vs 4 KB pages.
    EXPECT_LT(thp.missCyclesPerKiloInstr(),
              0.5 * base.missCyclesPerKiloInstr());
    // RMM nearly eliminates page walks.
    EXPECT_LT(rmm.stats.l2Mpki(), 0.05 * base.stats.l2Mpki());
    // RMM_Lite nearly eliminates L1 TLB misses too.
    EXPECT_LT(rmmLite.stats.l1Mpki(), 0.05 * thp.stats.l1Mpki());
    // And it spends much less translation energy than THP.
    EXPECT_LT(rmmLite.energyPerKiloInstr(),
              0.5 * thp.energyPerKiloInstr());
}

TEST(Simulator, TraceReplayMatchesDirectSimulation)
{
    const std::string path =
        test::scratchDir() + "eat_sim_trace_test.bin";
    auto cfg = quickConfig("omnetpp", core::MmuOrg::Thp, 400'000);
    cfg.timelineInterval = 100'000;

    const auto direct = simulate(cfg);
    const auto recorded = recordTrace(cfg, path);
    EXPECT_GT(recorded, 0u);
    const auto replayed = simulateFromTrace(cfg, path);

    // Identical address space + identical operation stream => identical
    // hardware behaviour, MPKI timeline included.
    EXPECT_EQ(replayed.workloadName, "omnetpp (trace)");
    EXPECT_EQ(qa::resultDigest(replayed), qa::resultDigest(direct));
    ASSERT_EQ(direct.mpkiTimeline.numSamples(), 4u);
    EXPECT_EQ(replayed.mpkiTimeline.samples(),
              direct.mpkiTimeline.samples());
}

TEST(Simulator, StaticEnergyFieldsPopulated)
{
    const auto r = simulate(quickConfig("astar", core::MmuOrg::TlbLite,
                                        3'000'000));
    EXPECT_GT(r.energy.staticEnergyFull, 0.0);
    EXPECT_GT(r.energy.staticEnergyGated, 0.0);
    EXPECT_LE(r.energy.staticEnergyGated, r.energy.staticEnergyFull);
}

TEST(Simulator, CombinedFullyAssocL1EndToEnd)
{
    auto cfg = quickConfig("astar", core::MmuOrg::TlbLite, 2'500'000);
    cfg.mmu.combinedFullyAssocL1 = true;
    const auto combined = simulate(cfg);
    EXPECT_GT(combined.stats.memOps, 0u);
    EXPECT_TRUE(combined.liteEnabled);
    // The combined fully associative L1 without Lite costs more than
    // the separate set-associative baseline (paper §2.2).
    auto thpCfg = quickConfig("astar", core::MmuOrg::Thp, 2'500'000);
    thpCfg.mmu.combinedFullyAssocL1 = true;
    const auto combinedThp = simulate(thpCfg);
    const auto separateThp =
        simulate(quickConfig("astar", core::MmuOrg::Thp, 2'500'000));
    EXPECT_GT(combinedThp.energyPerKiloInstr(),
              separateThp.energyPerKiloInstr());
}

TEST(Simulator, RejectsEmptyWindow)
{
    auto cfg = quickConfig("astar", core::MmuOrg::Thp);
    cfg.simulateInstructions = 0;
    EXPECT_THROW((void)simulate(cfg), std::logic_error);
}

TEST(BenchOptions, ParsesArguments)
{
    const char *argv[] = {"bench", "--instructions=5000",
                          "--fast-forward=100", "--seed=7", "--csv"};
    const auto opts =
        BenchOptions::parse(5, const_cast<char **>(argv));
    EXPECT_EQ(opts.simulateInstructions, 5000u);
    EXPECT_EQ(opts.fastForwardInstructions, 100u);
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_TRUE(opts.csv);
}

TEST(BenchOptions, QuickPreset)
{
    const char *argv[] = {"bench", "--quick"};
    const auto opts =
        BenchOptions::parse(2, const_cast<char **>(argv));
    EXPECT_EQ(opts.simulateInstructions, 4'000'000u);
}

TEST(BenchOptions, RejectsUnknownFlag)
{
    const char *argv[] = {"bench", "--frobnicate"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(argv)),
                 std::runtime_error);
}

TEST(BenchOptions, RejectsAnEmptyWindow)
{
    const char *argv[] = {"bench", "--instructions=0"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(argv)),
                 std::runtime_error);
}

TEST(Report, MeanOf)
{
    EXPECT_DOUBLE_EQ(meanOf({}), 0.0);
    EXPECT_DOUBLE_EQ(meanOf({2.0, 4.0}), 3.0);
}

TEST(Report, NormalizedTableShape)
{
    std::vector<core::MmuOrg> orgs{core::MmuOrg::Base4K,
                                   core::MmuOrg::Thp};
    BenchOptions opts;
    opts.simulateInstructions = 300'000;
    opts.fastForwardInstructions = 50'000;
    const auto rows = runMatrix(
        {*workloads::findWorkload("povray")}, orgs, opts);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].byOrg.size(), 2u);
    auto table = normalizedTable(rows, orgs, energyMetric, "energy");
    EXPECT_EQ(table.numRows(), 2u); // one workload + the average row
    // The baseline column is 1.0 by construction.
    EXPECT_NE(table.toString().find("1.000"), std::string::npos);
}

} // namespace
} // namespace eat::sim
