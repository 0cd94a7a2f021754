/**
 * @file
 * Fast paper-shape regression: Figure 10's qualitative orderings on a
 * reduced mini-grid.
 *
 * EXPERIMENTS.md pins the full 20M-instruction sweep; re-running that
 * per commit is half an hour of CPU. This suite re-checks the *shape*
 * of the headline figure in seconds: every workload runs 500k measured
 * instructions (after a 50k fast-forward) with Lite's interval scaled
 * down by the same factor (25k instead of 1M), preserving the number of
 * resize decisions per run. Absolute energies differ from the full
 * sweep, so the assertions are orderings and coarse ratio bands, not
 * point values — loose enough to survive model tuning, tight enough
 * that a sign error in an energy coefficient or a Lite decision
 * regression flips them.
 */

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/provenance.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"
#include "scratch_dir.hh"

namespace eat
{
namespace
{

constexpr std::uint64_t kInstructions = 500'000;
constexpr std::uint64_t kFastForward = 50'000;
/** Scaled with the window so Lite still makes ~50 resize decisions
 *  per run; at the full sweep's 1M interval a 500k window would never
 *  trigger a single decision and TLB_Lite would be THP exactly. */
constexpr std::uint64_t kLiteInterval = 10'000;

/** Energy per kilo-instruction for every (workload, org) cell. */
class PaperShapes : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        if (!grid_.empty())
            return;
        for (const auto &spec : workloads::tlbIntensiveSuite()) {
            for (const auto org : core::allOrgs()) {
                sim::SimConfig cfg;
                cfg.workload = spec;
                cfg.mmu = core::MmuConfig::make(org);
                if (cfg.mmu.liteEnabled)
                    cfg.mmu.lite.intervalInstructions = kLiteInterval;
                cfg.simulateInstructions = kInstructions;
                cfg.fastForwardInstructions = kFastForward;
                const auto result = sim::simulate(cfg);
                ASSERT_EQ(result.check.mismatches(), 0u)
                    << spec.name << " x " << core::orgName(org);
                grid_[{spec.name, org}] = result.energyPerKiloInstr();
            }
        }
    }

    static double
    energy(const std::string &workload, core::MmuOrg org)
    {
        const auto it = grid_.find({workload, org});
        EXPECT_NE(it, grid_.end()) << workload;
        return it == grid_.end() ? 0.0 : it->second;
    }

    /** Normalized to the 4KB configuration, Figure 10's unit. */
    static double
    normalized(const std::string &workload, core::MmuOrg org)
    {
        return energy(workload, org) /
               energy(workload, core::MmuOrg::Base4K);
    }

    static double
    averageNormalized(core::MmuOrg org)
    {
        double sum = 0.0;
        const auto &suite = workloads::tlbIntensiveSuite();
        for (const auto &spec : suite)
            sum += normalized(spec.name, org);
        return sum / static_cast<double>(suite.size());
    }

  private:
    static std::map<std::pair<std::string, core::MmuOrg>, double> grid_;
};

std::map<std::pair<std::string, core::MmuOrg>, double> PaperShapes::grid_;

TEST_F(PaperShapes, PrintMiniFigure10)
{
    // The mini-grid itself, for humans debugging a shape failure.
    std::printf("%-12s", "workload");
    for (const auto org : core::allOrgs())
        std::printf(" %9s", std::string(core::orgName(org)).c_str());
    std::printf("\n");
    for (const auto &spec : workloads::tlbIntensiveSuite()) {
        std::printf("%-12s", spec.name.c_str());
        for (const auto org : core::allOrgs())
            std::printf(" %9.3f", normalized(spec.name, org));
        std::printf("\n");
    }
}

TEST_F(PaperShapes, LiteSavesEnergyOverThpWhereverItEngages)
{
    // Figure 10: way-disabling improves on THP (TLB_Lite -26% on
    // average in the full sweep). In this reduced window Lite rightly
    // refuses to disable ways for mcf — the walk-bound workload whose
    // misses keep every way justified — so mcf only gets the
    // no-harm bound; the other seven must strictly save.
    for (const auto &spec : workloads::tlbIntensiveSuite()) {
        const double lite = energy(spec.name, core::MmuOrg::TlbLite);
        const double thp = energy(spec.name, core::MmuOrg::Thp);
        EXPECT_LE(lite, thp * 1.01)
            << spec.name << ": Lite must never cost more than its "
            << "sampling overhead over THP";
        if (spec.name != "mcf") {
            EXPECT_LT(lite, thp * 0.995)
                << spec.name << ": Lite must save energy over THP";
        }
    }
}

TEST_F(PaperShapes, RmmLiteBeatsTlbPpExceptOnManyRangeWorkloads)
{
    // Figure 10: RMM_Lite wins against the prefetching TLB_PP on every
    // single-arena workload; omnetpp and canneal (the many-small-
    // allocation pair that swamps a 4-entry range TLB) are the paper's
    // own exceptions, so no direction is asserted for them.
    for (const auto &spec : workloads::tlbIntensiveSuite()) {
        if (spec.name == "omnetpp" || spec.name == "canneal")
            continue;
        EXPECT_LT(energy(spec.name, core::MmuOrg::RmmLite),
                  energy(spec.name, core::MmuOrg::TlbPP))
            << spec.name << ": RMM_Lite must beat TLB_PP";
    }
}

TEST_F(PaperShapes, RmmLiteBigWinsOnWalkBoundPair)
{
    // Paper: "more than 80% [savings] for mcf and cactusADM", the two
    // page-walk-bound workloads, relative to the 4KB baseline.
    for (const std::string workload : {"mcf", "cactusADM"}) {
        const double saving =
            1.0 - normalized(workload, core::MmuOrg::RmmLite);
        EXPECT_GT(saving, 0.80)
            << workload << ": RMM_Lite must save >80% vs 4KB";
    }
}

TEST_F(PaperShapes, AverageOrderingMatchesFigure10)
{
    // Full-sweep averages (normalized to 4KB): RMM_Lite 0.274 <
    // TLB_PP 0.461 < TLB_Lite 0.566 < THP 0.758 < 1. The mini-grid
    // must preserve the strict ordering.
    const double rmmLite = averageNormalized(core::MmuOrg::RmmLite);
    const double tlbPp = averageNormalized(core::MmuOrg::TlbPP);
    const double tlbLite = averageNormalized(core::MmuOrg::TlbLite);
    const double thp = averageNormalized(core::MmuOrg::Thp);
    EXPECT_LT(rmmLite, tlbPp);
    EXPECT_LT(tlbPp, tlbLite);
    EXPECT_LT(tlbLite, thp);
    EXPECT_LT(thp, 1.0);
}

TEST(PaperShapesProvenance, Fig10OrderingReproducedFromTracedRuns)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << "this build has no provenance hooks";
    // The same headline ordering must fall out of the *provenance*
    // pipeline: trace a THP run and an RMM_Lite run, hand both streams
    // to eatreport --diff, and read the Figure-10 ratio it computes
    // from the traced events alone. mcf is walk-bound, so RMM_Lite
    // must land far below THP (full sweep: >80% savings vs 4KB).
    const std::string pathA = test::scratchDir() + "fig10_thp.jsonl";
    const std::string pathB = test::scratchDir() + "fig10_rmm.jsonl";
    for (const auto &[org, path] :
         {std::pair{core::MmuOrg::Thp, pathA},
          std::pair{core::MmuOrg::RmmLite, pathB}}) {
        sim::SimConfig cfg;
        cfg.workload = *workloads::findWorkload("mcf");
        cfg.mmu = core::MmuConfig::make(org);
        if (cfg.mmu.liteEnabled)
            cfg.mmu.lite.intervalInstructions = kLiteInterval;
        cfg.simulateInstructions = 300'000;
        cfg.fastForwardInstructions = kFastForward;
        cfg.provenancePath = path;
        sim::simulate(cfg);
    }

    const std::string cmd = std::string(EAT_EATREPORT_PATH) +
                            " --prov=" + pathA + " --diff=" + pathB +
                            " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        output.append(buffer, n);
    const int status = pclose(pipe);
    ASSERT_EQ(status, 0) << output;

    const auto pos = output.find("ratio=");
    ASSERT_NE(pos, std::string::npos) << output;
    const double ratio = std::strtod(output.c_str() + pos + 6, nullptr);
    EXPECT_GT(ratio, 0.0) << output;
    EXPECT_LT(ratio, 0.6)
        << "RMM_Lite must show Figure 10's big win over THP on the "
        << "walk-bound mcf\n"
        << output;
}

TEST_F(PaperShapes, ThpHelpsOnlyTheWalkBoundPairMuch)
{
    // Figure 10's THP column: the walk-bound pair (cactusADM, mcf)
    // gains >40%, everyone else gains little; canneal is the largest
    // energy *increase* of the suite.
    EXPECT_LT(normalized("mcf", core::MmuOrg::Thp), 0.6);
    EXPECT_LT(normalized("cactusADM", core::MmuOrg::Thp), 0.7);
    double cannealThp = normalized("canneal", core::MmuOrg::Thp);
    for (const auto &spec : workloads::tlbIntensiveSuite()) {
        EXPECT_LE(normalized(spec.name, core::MmuOrg::Thp),
                  cannealThp + 1e-9)
            << spec.name << ": canneal must be THP's worst case";
    }
}

} // namespace
} // namespace eat
