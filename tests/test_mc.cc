/**
 * @file
 * Tests for the multicore simulation subsystem (src/mc/): the
 * acceptance properties of the scheduler, ASID tagging, shootdown
 * accounting, and checker attribution.
 *
 *  - mix-spec parsing accepts the suite and rejects garbage;
 *  - a 4-core mixed run is deterministic across repeats;
 *  - ASID-tagged TLBs beat ctx-flush on L1 misses on the same mix;
 *  - shootdown counters balance exactly;
 *  - a fault injected into one core's TLB is caught and attributed to
 *    that core, with every other core's checker silent.
 */

#include <gtest/gtest.h>

#include "check/shadow_checker.hh"
#include "mc/mc_simulator.hh"
#include "mc/mix.hh"
#include "qa/oracles.hh"
#include "sim/simulator.hh"

namespace eat::mc
{
namespace
{

/** A small but representative base config for mc runs. */
sim::SimConfig
baseConfig(core::MmuOrg org)
{
    sim::SimConfig cfg;
    cfg.mmu = core::MmuConfig::make(org);
    cfg.simulateInstructions = 60'000;
    cfg.fastForwardInstructions = 5'000;
    cfg.seed = 42;
    cfg.checkLevel = check::CheckLevel::Full;
    return cfg;
}

McConfig
mcConfig(core::MmuOrg org, unsigned cores, const std::string &mix)
{
    McConfig cfg;
    cfg.base = baseConfig(org);
    auto parsed = parseMixSpec(mix);
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    cfg.mix = parsed.value();
    cfg.base.workload = cfg.mix.front();
    cfg.cores = cores;
    return cfg;
}

TEST(MixSpec, ParsesTheSuiteAndRejectsGarbage)
{
    const auto ok = parseMixSpec("mcf,canneal,omnetpp,astar");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().size(), 4u);
    EXPECT_EQ(ok.value()[0].name, "mcf");
    EXPECT_EQ(mixName(ok.value()), "mcf,canneal,omnetpp,astar");

    EXPECT_FALSE(parseMixSpec("").ok());
    EXPECT_FALSE(parseMixSpec("mcf,,canneal").ok());
    EXPECT_FALSE(parseMixSpec("nosuchworkload").ok());

    EXPECT_TRUE(parseCoreCount("4").ok());
    EXPECT_FALSE(parseCoreCount("0").ok());
    EXPECT_FALSE(parseCoreCount("99").ok());
    EXPECT_FALSE(parseCoreCount("two").ok());
}

TEST(McSimulator, FourCoreMixedRunIsDeterministic)
{
    McConfig cfg =
        mcConfig(core::MmuOrg::TlbLite, 4, "mcf,canneal,omnetpp,astar");
    cfg.quantumInstructions = 10'000;
    cfg.remapInterval = 25'000;

    const auto a = mcSimulate(cfg);
    const auto b = mcSimulate(cfg);
    EXPECT_EQ(qa::mcResultDigest(a), qa::mcResultDigest(b));

    // Per-core and aggregate reporting exist and are coherent.
    ASSERT_EQ(a.perCore.size(), 4u);
    ASSERT_EQ(a.tasks.size(), 4u);
    EXPECT_GT(a.totalInstructions(), 0u);
    EXPECT_GT(a.totalEnergyPj(), 0.0);
    EXPECT_GT(a.aggregateMpki(), 0.0);
    EXPECT_GT(a.shootdownEvents, 0u);
    std::uint64_t perCoreInstr = 0;
    for (const auto &c : a.perCore)
        perCoreInstr += c.stats.instructions;
    EXPECT_EQ(perCoreInstr, a.totalInstructions());
}

TEST(McSimulator, AsidTaggingBeatsCtxFlushOnL1Misses)
{
    // Short quanta keep the returning task's entries alive in ASID
    // mode; ctx-flush throws them away at every switch.
    McConfig cfg = mcConfig(core::MmuOrg::Thp, 2, "omnetpp,astar");
    cfg.quantumInstructions = 2'000;

    McConfig flush = cfg;
    flush.ctxFlush = true;

    auto l1Misses = [](const McResult &r) {
        std::uint64_t total = 0;
        for (const auto &c : r.perCore)
            total += c.stats.l1Misses;
        return total;
    };
    EXPECT_LT(l1Misses(mcSimulate(cfg)), l1Misses(mcSimulate(flush)));
}

TEST(McSimulator, ShootdownAccountingBalances)
{
    McConfig cfg = mcConfig(core::MmuOrg::Thp, 4, "mcf,canneal");
    cfg.quantumInstructions = 10'000;
    cfg.remapInterval = 20'000;

    const auto r = mcSimulate(cfg);
    ASSERT_GT(r.shootdownEvents, 0u);

    std::uint64_t initiated = 0, received = 0, invalidations = 0,
                  cycles = 0;
    double energy = 0.0;
    for (const auto &c : r.perCore) {
        initiated += c.stats.shootdownsInitiated;
        received += c.stats.shootdownsReceived;
        invalidations += c.stats.shootdownInvalidations;
        cycles += c.stats.shootdownCycles;
        energy += c.stats.shootdownEnergyPj;
    }
    // Every broadcast is initiated by exactly one core and received by
    // every other core; the invalidation total matches the broadcast
    // tally, and the initiating cores were charged for the IPIs.
    EXPECT_EQ(initiated, r.shootdownEvents);
    EXPECT_EQ(received, r.shootdownEvents * (cfg.cores - 1));
    EXPECT_EQ(invalidations, r.shootdownInvalidations);
    EXPECT_GT(cycles, 0u);
    EXPECT_GT(energy, 0.0);
}

TEST(McSimulator, InjectedFaultIsAttributedToItsCore)
{
    McConfig cfg = mcConfig(core::MmuOrg::Base4K, 2, "mcf,canneal");
    cfg.base.faultSpec = "ppn-flip@l1-4k:0.005";
    cfg.faultCore = 1;

    const auto r = mcSimulate(cfg);
    ASSERT_EQ(r.perCore.size(), 2u);
    // The checker is on by default in mc runs and catches the
    // corruption on the injected core...
    EXPECT_GT(r.perCore[1].check.translationChecks, 0u);
    EXPECT_GT(r.perCore[1].check.mismatches(), 0u);
    EXPECT_EQ(r.perCore[1].firstMismatch.rfind("core1: ", 0), 0u)
        << r.perCore[1].firstMismatch;
    // ...while the untouched core stays silent.
    EXPECT_EQ(r.perCore[0].check.mismatches(), 0u);
    EXPECT_TRUE(r.perCore[0].firstMismatch.empty());
}

TEST(McSimulator, SharedAddressSpaceMakesContextSwitchesFree)
{
    // Shared mode: every task runs in the same address space under
    // ASID 0, so no context switch ever reloads the page table.
    McConfig cfg = mcConfig(core::MmuOrg::Thp, 2, "mcf,canneal");
    cfg.sharedAddressSpace = true;
    cfg.quantumInstructions = 10'000;

    const auto r = mcSimulate(cfg);
    for (const auto &c : r.perCore)
        EXPECT_EQ(c.stats.contextSwitches, 0u);
    for (const auto &t : r.tasks)
        EXPECT_EQ(t.asid, 0u);
}

} // namespace
} // namespace eat::mc
