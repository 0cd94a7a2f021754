/**
 * @file
 * The giant-reach L3 translation tier: unit tests for the cache-
 * resident and in-DRAM substrates, the simulated-outcome contracts the
 * tier must honor, and the tier's own paper-shape headline.
 *
 * Contract tests:
 *  - `--l3=none` runs are digest-identical to the pre-tier build for
 *    all six organizations (golden digests checked in under
 *    tests/golden/, recorded at the commit that introduced the tier);
 *  - the l3-accounting and provenance-reconciliation oracles are clean
 *    over a 200-scenario fuzzed campaign in which every scenario runs
 *    one of the two substrates;
 *  - the headline: an L3-backed 4KB+Lite organization beats RMM_Lite
 *    (the paper's best) on dynamic translation energy on the two
 *    workloads where ranges serve RMM_Lite worst (omnetpp, canneal —
 *    the paper's own exceptions, where RMM_Lite loses to TLB_PP),
 *    while staying within the 4KB baseline's TLB-miss-cycle band.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "energy/cacti_lite.hh"
#include "l3/cache_tlb.hh"
#include "l3/dram_tlb.hh"
#include "qa/generator.hh"
#include "qa/oracles.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace eat
{
namespace
{

// --- CacheCapacityModel ----------------------------------------------

TEST(L3CapacityModel, ReservedShareIsAWayPartition)
{
    const energy::CactiLite cacti;
    l3::CacheTlbConfig cfg; // 64 Ki entries / 8 per line = 8 Ki lines
    const l3::CacheTlb tlb(cfg, cacti);
    const auto &cap = tlb.capacity();

    // 8 Ki reserved lines of a 16-way, 8 Ki-set LLC are one whole way.
    EXPECT_EQ(cap.totalLines(), 131072u);
    EXPECT_EQ(cap.reservedLines(), 8192u);
    EXPECT_EQ(cap.reservedWays(), 1u);
    EXPECT_DOUBLE_EQ(cap.reservedFraction(), 1.0 / 16.0);

    // The probe is charged for the partition's geometry, not the full
    // 16-way array: it must cost well under one full-LLC access and
    // well under one page-walk memory reference (~174 pJ), or the tier
    // could never pay for itself.
    const auto &coeff = cap.accessCoefficients();
    const auto full = cacti.estimate(energy::StructClass::L2Cache,
                                     131072, 16);
    EXPECT_LT(coeff.read, full.read / 10.0);
    EXPECT_LT(coeff.read, 60.0);
    EXPECT_GT(coeff.read, 1.0);

    // Leakage stays capacity-proportional against the whole LLC.
    EXPECT_DOUBLE_EQ(coeff.leakage, full.leakage / 16.0);
}

// --- CacheTlb --------------------------------------------------------

TEST(L3CacheTlb, FillThenLookupHitsAndInvalidates)
{
    const energy::CactiLite cacti;
    l3::CacheTlbConfig cfg;
    cfg.entries = 64;
    cfg.ways = 4;
    l3::CacheTlb tlb(cfg, cacti);

    const Addr va = 0x7f1234567000ull;
    EXPECT_FALSE(tlb.lookup(va, 0).hit);
    tlb.fill({va, 0x1000, vm::PageSize::Size4K, 12, 0});
    const auto hit = tlb.lookup(va, 0);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.entry.pbase, 0x1000u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);

    EXPECT_EQ(tlb.invalidateRange(va, va + 0x1000, 0), 1u);
    EXPECT_FALSE(tlb.lookup(va, 0).hit);
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST(L3CacheTlb, PromotePolicyAdmitsOnlyDuringMissStreaks)
{
    const energy::CactiLite cacti;
    l3::CacheTlbConfig cfg;
    cfg.entries = 64;
    cfg.ways = 4;
    cfg.policy = l3::L3InsertPolicy::PtePromote;
    cfg.promoteStreak = 3;
    l3::CacheTlb tlb(cfg, cacti);

    // Each lookup is one L2 miss; the streak builds until an L2 hit.
    tlb.lookup(0x1000, 0);
    tlb.lookup(0x2000, 0);
    EXPECT_FALSE(tlb.admitOnWalk()) << "streak 2 < promoteStreak 3";
    tlb.lookup(0x3000, 0);
    EXPECT_TRUE(tlb.admitOnWalk());
    tlb.noteL2Hit();
    tlb.lookup(0x4000, 0);
    EXPECT_FALSE(tlb.admitOnWalk()) << "an L2 hit must reset the streak";
}

// --- DramTlb ---------------------------------------------------------

TEST(L3DramTlb, TagCacheFiltersRepeatedMissesFromDram)
{
    const energy::CactiLite cacti;
    l3::DramTlbConfig cfg;
    cfg.entries = 4096;
    cfg.ways = 4;
    cfg.tagCacheEntries = 1024; // covers all 1024 sets
    l3::DramTlb tlb(cfg, cacti);

    const Addr va = 0x5555deadb000ull;
    const auto first = tlb.probe(va, 0);
    EXPECT_FALSE(first.hit);
    EXPECT_FALSE(first.tagCacheHit);
    EXPECT_TRUE(first.dramAccessed) << "a cold set must touch DRAM";

    const auto second = tlb.probe(va, 0);
    EXPECT_FALSE(second.hit);
    EXPECT_TRUE(second.tagCacheHit);
    EXPECT_FALSE(second.dramAccessed)
        << "the warmed tag cache must prove the miss without DRAM";
    EXPECT_EQ(tlb.dramAccesses(), 1u);
}

TEST(L3DramTlb, FillsHitAndInvalidationDistrustsTheTagCache)
{
    const energy::CactiLite cacti;
    l3::DramTlbConfig cfg;
    cfg.entries = 4096;
    cfg.ways = 4;
    cfg.tagCacheEntries = 1024;
    l3::DramTlb tlb(cfg, cacti);

    const Addr va = 0x600000042000ull;
    tlb.fill({va, 0x9000, vm::PageSize::Size4K, 12, 0});
    const auto hit = tlb.probe(va, 0);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.entry.pbase, 0x9000u);
    EXPECT_TRUE(hit.dramAccessed) << "a hit always reads the DRAM entry";

    tlb.invalidateAll();
    const auto after = tlb.probe(va, 0);
    EXPECT_FALSE(after.hit);
    EXPECT_FALSE(after.tagCacheHit)
        << "invalidation must distrust every cached tag";
}

// --- Lite epsilon relief ---------------------------------------------

TEST(L3Config, EnableL3RelaxesLiteEpsilonAgainstTheBackstop)
{
    auto relative = core::MmuConfig::make(core::MmuOrg::TlbLite);
    const double baseEps = relative.lite.epsilonRelative;
    relative.enableL3(l3::L3Mode::Cache);
    EXPECT_DOUBLE_EQ(relative.lite.epsilonRelative,
                     baseEps * relative.l3LiteEpsilonScale);

    auto absolute = core::MmuConfig::make(core::MmuOrg::RmmLite);
    const double baseMpki = absolute.lite.epsilonAbsoluteMpki;
    absolute.enableL3(l3::L3Mode::Dram);
    EXPECT_DOUBLE_EQ(absolute.lite.epsilonAbsoluteMpki,
                     baseMpki * absolute.l3LiteEpsilonScale);

    // No tier, no relief.
    auto off = core::MmuConfig::make(core::MmuOrg::TlbLite);
    off.enableL3(l3::L3Mode::None);
    EXPECT_DOUBLE_EQ(off.lite.epsilonRelative, baseEps);
}

// --- digest identity: --l3=none is the pre-tier simulator ------------

/** The exact run recorded in tests/golden/l3_none_digests.txt. */
sim::SimConfig
goldenConfig(core::MmuOrg org)
{
    sim::SimConfig cfg;
    cfg.workload = *workloads::findWorkload("mcf");
    cfg.mmu = core::MmuConfig::make(org);
    if (cfg.mmu.liteEnabled)
        cfg.mmu.lite.intervalInstructions = 10'000;
    cfg.simulateInstructions = 60'000;
    cfg.fastForwardInstructions = 5'000;
    cfg.seed = 7;
    return cfg;
}

TEST(L3DigestIdentity, NoneModeMatchesPreTierGoldenDigests)
{
    const std::string path =
        std::string(EAT_CORPUS_DIR) + "/../golden/l3_none_digests.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden digest file " << path;

    unsigned checked = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string orgLabel = line.substr(0, space);
        const std::string golden = line.substr(space + 1);

        const core::MmuOrg org = [&orgLabel] {
            for (const auto o : core::allOrgs())
                if (core::orgName(o) == orgLabel)
                    return o;
            ADD_FAILURE() << "unknown org in golden file: " << orgLabel;
            return core::MmuOrg::Base4K;
        }();

        const auto result = sim::simulate(goldenConfig(org));
        EXPECT_EQ(qa::resultDigest(result), golden)
            << orgLabel
            << ": an --l3=none run diverged from the pre-tier "
               "simulator (the tier must be invisible when off)";
        ++checked;
    }
    EXPECT_EQ(checked, core::allOrgs().size())
        << "golden file must cover all six organizations";
}

TEST(L3DigestIdentity, ActiveTierChangesTheDigest)
{
    // Sanity for the test above: the digest must actually carry the
    // tier's counters when it runs, or identity would hold vacuously.
    auto cfg = goldenConfig(core::MmuOrg::Base4K);
    cfg.mmu.enableL3(l3::L3Mode::Cache);
    const auto digest = qa::resultDigest(sim::simulate(cfg));
    EXPECT_NE(digest.find(" l3"), std::string::npos)
        << "an active tier must print its counter section";
    EXPECT_NE(digest, qa::resultDigest(
                          sim::simulate(goldenConfig(core::MmuOrg::Base4K))));
}

// --- fuzzed oracle campaign over the tier ----------------------------

TEST(L3OracleCampaign, CleanOverTwoHundredScenariosWithTheTierForcedOn)
{
    // Every scenario runs one of the two substrates, alternating, on
    // top of whatever organization/window/faults the generator chose.
    // runOracles() applies the full oracle stack: l3-accounting,
    // energy conservation, nested-walk identities, and bit-exact
    // provenance reconciliation against the L3/DRAM meters.
    unsigned l3AccountingRuns = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        auto s = qa::generateScenario(4242, i);
        if (!s.hasL3()) {
            s.l3Mode = (i % 2 == 0) ? "cache" : "dram";
            s.l3Policy.clear();
            s.l3PromoteStreak = 0;
        }
        // Cap the window: the oracles judge identities, not steady
        // state, and 200 full-size windows would dominate ctest.
        if (s.simInstructions > 60'000)
            s.simInstructions = 60'000;
        ASSERT_TRUE(s.toSimConfig().mmu.validate().ok()) << s.describe();

        const auto verdict = qa::runOracles(s);
        EXPECT_TRUE(verdict.passed())
            << "seed 4242 index " << i << " (" << s.describe() << "):\n"
            << (verdict.violations.empty() ? ""
                                           : verdict.violations.front());
        for (const auto &name : verdict.checked)
            l3AccountingRuns += name == "l3-accounting" ? 1 : 0;
    }
    EXPECT_GE(l3AccountingRuns, 200u)
        << "the l3-accounting oracle must have judged every scenario";
}

// --- the tier's paper shape ------------------------------------------

/** 4KB pages + TLB_Lite's Lite settings + the cache-resident tier:
 *  the Victima pitch (giant reach without huge pages), with the Lite
 *  epsilon relief the backstop buys. */
sim::SimConfig
l3BackedLiteConfig(const workloads::WorkloadSpec &spec)
{
    sim::SimConfig cfg;
    cfg.workload = spec;
    cfg.mmu = core::MmuConfig::make(core::MmuOrg::TlbLite);
    cfg.mmu.org = core::MmuOrg::Base4K; // no THP; reach comes from L3
    cfg.mmu.lite.intervalInstructions = 10'000;
    cfg.mmu.enableL3(l3::L3Mode::Cache);
    cfg.simulateInstructions = 2'000'000;
    cfg.fastForwardInstructions = 200'000;
    return cfg;
}

TEST(L3PaperShape, CacheTierWithLiteBeatsRmmLiteOnItsWeakWorkloads)
{
    // omnetpp and canneal are the paper's own RMM_Lite exceptions: the
    // many-small-allocation pair whose scattered ranges swamp a
    // 4-entry range TLB (Figure 10 shows TLB_PP beating RMM_Lite
    // there). The L3-backed 4KB+Lite organization must win on dynamic
    // translation energy on both, while keeping TLB-miss cycles within
    // a bounded band of the 4KB baseline. The band is 1.35x: with the
    // epsilon relief Lite runs the L1 near its floor geometry, and the
    // extra L1 misses each pay a 7-cycle L2 probe (~1.3x measured at a
    // forced 16x1 L1), never a walk — bounded latency bought the
    // energy, and the bound is asserted here.
    for (const std::string workload : {"omnetpp", "canneal"}) {
        // findWorkload returns the optional by value: copy the spec out
        // (a reference would dangle once the temporary dies).
        const auto spec = *workloads::findWorkload(workload);

        const auto l3Run = sim::simulate(l3BackedLiteConfig(spec));
        ASSERT_EQ(l3Run.check.mismatches(), 0u) << workload;
        ASSERT_GT(l3Run.stats.l3Probes, 0u) << workload;

        sim::SimConfig rmmCfg;
        rmmCfg.workload = spec;
        rmmCfg.mmu = core::MmuConfig::make(core::MmuOrg::RmmLite);
        rmmCfg.mmu.lite.intervalInstructions = 10'000;
        rmmCfg.simulateInstructions = 2'000'000;
        rmmCfg.fastForwardInstructions = 200'000;
        const auto rmmRun = sim::simulate(rmmCfg);

        sim::SimConfig flatCfg;
        flatCfg.workload = spec;
        flatCfg.mmu = core::MmuConfig::make(core::MmuOrg::Base4K);
        flatCfg.simulateInstructions = 2'000'000;
        flatCfg.fastForwardInstructions = 200'000;
        const auto flatRun = sim::simulate(flatCfg);

        const double l3Energy = l3Run.energyPerKiloInstr();
        const double rmmEnergy = rmmRun.energyPerKiloInstr();
        std::printf("%-8s TLB_L3$ %8.1f pJ/kinstr (%5.1f%% hits)  "
                    "RMM_Lite %8.1f   miss-cyc %8.1f vs 4KB %8.1f\n",
                    workload.c_str(), l3Energy,
                    100.0 * double(l3Run.stats.l3Hits) /
                        double(l3Run.stats.l3Probes),
                    rmmEnergy, l3Run.missCyclesPerKiloInstr(),
                    flatRun.missCyclesPerKiloInstr());

        EXPECT_LT(l3Energy, rmmEnergy)
            << workload << ": the L3-backed Lite organization must "
            << "beat RMM_Lite on dynamic translation energy";
        EXPECT_LT(l3Run.missCyclesPerKiloInstr(),
                  flatRun.missCyclesPerKiloInstr() * 1.35)
            << workload << ": the tier may not buy that energy with "
            << "TLB-miss cycles beyond the 4KB baseline's band";
    }
}

} // namespace
} // namespace eat
