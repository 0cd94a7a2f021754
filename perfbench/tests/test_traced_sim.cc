/**
 * @file
 * The traced driver must reproduce sim::simulate() exactly: same
 * MmuStats, same dynamic energy bit for bit, same checker counts, on
 * every layer combination the benchmark traces.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "qa/oracles.hh"
#include "traced_sim.hh"
#include "workloads/suite.hh"

namespace
{

using namespace eat;

sim::SimConfig
smallCell(const std::string &workload, core::MmuOrg org)
{
    sim::SimConfig cfg;
    cfg.workload = *workloads::findWorkload(workload);
    cfg.mmu = core::MmuConfig::make(org);
    cfg.simulateInstructions = 300'000;
    cfg.fastForwardInstructions = 30'000;
    cfg.seed = 7;
    return cfg;
}

void
expectIdentical(const sim::SimConfig &cfg)
{
    const auto ref = sim::simulate(cfg);
    perfbench::LayerSpans spans;
    const auto traced = perfbench::tracedSimulate(cfg, spans);

    EXPECT_EQ(qa::resultDigest(ref), qa::resultDigest(traced));
    EXPECT_EQ(ref.totalEnergy(), traced.totalEnergy());
    EXPECT_EQ(ref.check.translationChecks, traced.check.translationChecks);
    EXPECT_EQ(ref.check.mismatches(), traced.check.mismatches());
    EXPECT_EQ(ref.frontCacheHits, traced.frontCacheHits);
    EXPECT_EQ(ref.telemetryRecords, traced.telemetryRecords);
    EXPECT_EQ(ref.provenance.events, traced.provenance.events);

    // Every operation lands in exactly one access and one tick bucket.
    const std::uint64_t accesses =
        spans.accessL1.count() + spans.accessL2.count() +
        spans.accessL3.count() + spans.accessWalk.count();
    EXPECT_EQ(accesses, traced.stats.memOps);
    EXPECT_EQ(spans.next.count(), traced.stats.memOps);
    EXPECT_EQ(spans.tick.count() + spans.tickInterval.count(),
              traced.stats.memOps);
    EXPECT_EQ(spans.accessL1.count(), traced.stats.l1Hits);
    EXPECT_EQ(spans.accessL2.count(), traced.stats.l2Hits);
    EXPECT_EQ(spans.accessL3.count(), traced.stats.l3Probes);
    EXPECT_EQ(spans.mmBuild.count(), 1u);
}

class TracedEveryOrg : public ::testing::TestWithParam<core::MmuOrg>
{
};

TEST_P(TracedEveryOrg, MatchesSimulate)
{
    expectIdentical(smallCell("mcf", GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Orgs, TracedEveryOrg,
                         ::testing::ValuesIn(core::allOrgs()));

TEST(TracedSim, MatchesSimulateWithoutChecker)
{
    auto cfg = smallCell("gcc", core::MmuOrg::Thp);
    cfg.checkLevel = check::CheckLevel::Off;
    expectIdentical(cfg);
}

TEST(TracedSim, MatchesSimulateNestedWithL3AndOutputs)
{
    auto cfg = smallCell("canneal", core::MmuOrg::TlbLite);
    cfg.mmu.vmEnabled = true;
    cfg.mmu.enableL3(l3::L3Mode::Cache);
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     ("perfbench_traced_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    cfg.provenancePath = (dir / "prov.jsonl").string();
    cfg.provenanceSampleEvery = 64;
    cfg.telemetryPath = (dir / "telemetry.jsonl").string();
    expectIdentical(cfg);
    std::filesystem::remove_all(dir);
}

TEST(TracedSim, MatchesSimulateUnderFaultInjection)
{
    auto cfg = smallCell("mcf", core::MmuOrg::Base4K);
    cfg.faultSpec = "ppn-flip@l1-4k:0.003";
    expectIdentical(cfg);
}

TEST(SpanHistogram, QuantilesAreNearestRank)
{
    perfbench::SpanHistogram h;
    for (std::uint64_t ns = 1; ns <= 100; ++ns)
        h.add(ns);
    EXPECT_EQ(h.quantile(0.5), 50.0);
    EXPECT_EQ(h.quantile(0.99), 99.0);
    EXPECT_EQ(h.sumNs(), 5050u);
    // Above 1 us a bucket spans 1/64 of its octave.
    perfbench::SpanHistogram wide;
    wide.add(3000);
    EXPECT_LE(wide.quantile(0.5), 3000.0);
    EXPECT_GT(wide.quantile(0.5), 3000.0 * (1.0 - 1.0 / 64.0));
}

TEST(SpanSamples, TailQuantileKeepsTenSamplesBeyond)
{
    EXPECT_EQ(perfbench::tailQuantileFor(50), 0.5);
    EXPECT_EQ(perfbench::tailQuantileFor(100), 0.9);
    EXPECT_EQ(perfbench::tailQuantileFor(1000), 0.99);
    EXPECT_EQ(perfbench::tailQuantileFor(1'000'000), 0.999);
}

} // namespace
