#include "qa/generator.hh"

#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "base/rng.hh"
#include "workloads/suite.hh"

namespace eat::qa
{

namespace
{

/** True for organizations whose L1 is built from per-size page TLBs. */
bool
isPageTlbOrg(core::MmuOrg org)
{
    switch (org) {
      case core::MmuOrg::Base4K:
      case core::MmuOrg::Thp:
      case core::MmuOrg::TlbLite:
      case core::MmuOrg::TlbPP:
        return true;
      case core::MmuOrg::Rmm:
      case core::MmuOrg::RmmLite:
        return false;
    }
    return false;
}

/**
 * Build a fault plan that the shadow checker can actually catch.
 *
 * ppn-flips on hot structures corrupt translations that re-hit (the
 * consumed flips the fault-detection oracle keys on), which the Paddr
 * check then flags; tag-flips and dropped invalidations
 * mostly degrade into extra (correct) walks, so they are added only as
 * low-probability garnish to exercise the injector paths, never as the
 * sole clause.
 */
std::string
generateFaultSpec(core::MmuOrg org, Rng &rng)
{
    std::ostringstream spec;
    // Probability chosen so that even the smallest measured window
    // (~30k instructions, roughly a third of them memory operations)
    // lands dozens of corrupted fills, most of which re-hit.
    const double pFlip = 3e-3 * std::pow(10.0, rng.real());
    // The flipped structure must be hot enough that corrupted entries
    // re-hit: under huge-page organizations the L2 TLB (4 KB entries
    // only) is nearly empty, so flips there land on dead entries and
    // legitimately stay silent. Only Base4K keeps it busy.
    const bool targetL2 =
        org == core::MmuOrg::Base4K && rng.chance(0.5);
    spec << "ppn-flip@" << (targetL2 ? "l2" : "l1-4k") << ':' << pFlip;
    if (rng.chance(0.3))
        spec << ",tag-flip@any:" << 1e-4;
    if (rng.chance(0.2))
        spec << ",drop-inv@l1-4k:" << 1e-3;
    return spec.str();
}

} // namespace

Scenario
generateScenario(std::uint64_t campaignSeed, std::uint64_t index)
{
    // Mix the pair into one seed; the Rng's splitmix64 expansion
    // decorrelates adjacent indices.
    Rng rng(campaignSeed * 0x9e3779b97f4a7c15ull + index * 2 + 1);

    Scenario s;
    s.id = index;
    s.seed = rng.next();

    const auto &workloads = workloads::tlbIntensiveSuite();
    s.workload = workloads[rng.below(workloads.size())].name;

    const auto &orgs = core::allOrgs();
    s.org = orgs[rng.below(orgs.size())];

    // Windows small enough that hundreds of scenarios fit in a CI
    // smoke budget, large enough for several Lite intervals.
    s.simInstructions = rng.range(30'000, 300'000);
    s.fastForward = rng.chance(0.5) ? rng.range(1'000, 50'000) : 0;
    s.timelineInterval = rng.chance(0.25) ? rng.range(5'000, 50'000) : 0;

    const auto base = core::MmuConfig::make(s.org);
    if (!base.mixedTlbs && rng.chance(0.15))
        s.combinedL1 = true;
    if (base.hasL2Range && rng.chance(0.3))
        s.eagerRanges = static_cast<unsigned>(rng.range(1, 8));
    if (base.liteEnabled) {
        // Short intervals so resizing decisions actually happen inside
        // the small measured windows.
        s.liteInterval = rng.range(5'000, 40'000);
        if (rng.chance(0.5)) {
            s.liteEpsilon =
                base.lite.mode == lite::ThresholdMode::Relative
                    ? 0.05 + 0.2 * rng.real()
                    : 0.02 + 0.3 * rng.real();
        }
        if (rng.chance(0.25))
            s.liteFullActProb = 1.0 / static_cast<double>(rng.range(16, 128));
    }

    // Fault plans only where corruption is observable: page-TLB L1s
    // with self-contained fill streams (range orgs satisfy most
    // lookups from range entries, so TLB corruption rarely re-hits).
    if (isPageTlbOrg(s.org) && rng.chance(0.25))
        s.faultSpec = generateFaultSpec(s.org, rng);

    // A quarter of scenarios exercise the multicore oracles: context
    // switching, ASID tagging (or --ctx-flush), shootdown churn and
    // per-core attribution — at one core with an explicit mix too.
    if (rng.chance(0.25)) {
        constexpr unsigned kCoreChoices[] = {1, 2, 4};
        s.cores = kCoreChoices[rng.below(3)];
        const auto mixLen = rng.range(1, 4);
        std::string mix;
        for (std::uint64_t i = 0; i < mixLen; ++i) {
            if (!mix.empty())
                mix += ',';
            mix += workloads[rng.below(workloads.size())].name;
        }
        s.mixSpec = mix;
        s.sharedSpace = rng.chance(0.5);
        s.ctxFlush = rng.chance(0.3);
        s.quantum = rng.range(5'000, 50'000);
        if (rng.chance(0.5))
            s.remapInterval = rng.range(20'000, 100'000);
        if (s.cores > 1 && !s.faultSpec.empty())
            s.faultCore = static_cast<unsigned>(rng.below(s.cores));
        // Multicore remap scenarios split between IPI broadcast and
        // hardware translation coherence, so both cost books — and the
        // coherence-equivalence oracle — see fuzz traffic.
        if (s.cores > 1 && rng.chance(0.5))
            s.coherence = rng.chance(0.5) ? "hw" : "ipi";
    }

    // A fifth of scenarios run under nested paging: identity hosts
    // prove the zero-cost path stays digest-identical to bare metal,
    // paged hosts drive the full two-dimensional walk arithmetic.
    if (rng.chance(0.2)) {
        s.vmMode = rng.chance(0.35) ? "identity" : "paged";
        if (s.vmMode == "paged") {
            constexpr const char *kHostPages[] = {"4k", "2m", "1g"};
            s.hostPages = kHostPages[rng.below(3)];
        }
    }

    // A quarter of scenarios add the L3 translation tier — on top of
    // whatever org/multicore/vm shape was drawn above, because the tier
    // claims validity over every organization. Both substrates and both
    // cache-tier insertion policies see fuzz traffic.
    if (rng.chance(0.25)) {
        s.l3Mode = rng.chance(0.5) ? "cache" : "dram";
        if (s.l3Mode == "cache" && rng.chance(0.5)) {
            s.l3Policy = rng.chance(0.5) ? "promote" : "walk";
            if (s.l3Policy == "promote")
                s.l3PromoteStreak =
                    static_cast<unsigned>(rng.range(1, 6));
        }
    }

    const auto cfg = s.toSimConfig();
    eat_assert(cfg.mmu.validate().ok(),
               "generator emitted invalid scenario: ", s.describe());
    return s;
}

} // namespace eat::qa
