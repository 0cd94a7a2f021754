/**
 * @file
 * Tests for the self-checking layer: the golden shadow translator, the
 * differential checker (does it actually fire on corrupted state?),
 * fault-injection determinism, configuration validation, and the strict
 * parse helpers.
 */

#include <gtest/gtest.h>

#include "base/parse.hh"
#include "base/status.hh"
#include "check/fault_injector.hh"
#include "check/shadow_checker.hh"
#include "check/shadow_translator.hh"
#include "core/mmu.hh"
#include "mc/mc_simulator.hh"
#include "sim/simulator.hh"
#include "vm/memory_manager.hh"
#include "workloads/suite.hh"
#include "workloads/workload.hh"

namespace eat::check
{
namespace
{

using vm::PageSize;

// --- Status / Result / parse helpers ---------------------------------

TEST(Status, DefaultIsOkAndErrorCarriesMessage)
{
    const Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(ok.message().empty());

    const Status err = Status::error("bad thing ", 42);
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.message(), "bad thing 42");
}

TEST(Status, ResultHoldsValueOrStatus)
{
    const Result<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);

    const Result<int> bad(Status::error("nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().message(), "nope");
}

TEST(Parse, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseU64("0").value(), 0u);
    EXPECT_EQ(parseU64("20000000").value(), 20000000u);
    EXPECT_EQ(parseU64("18446744073709551615").value(), UINT64_MAX);
}

TEST(Parse, RejectsGarbage)
{
    EXPECT_FALSE(parseU64("").ok());
    EXPECT_FALSE(parseU64("abc").ok());
    EXPECT_FALSE(parseU64("12abc").ok());
    EXPECT_FALSE(parseU64("-5").ok());
    EXPECT_FALSE(parseU64("1e6").ok());
    // One past UINT64_MAX must be an overflow error, not a wrap.
    EXPECT_FALSE(parseU64("18446744073709551616").ok());
}

TEST(Parse, ParsesDoubles)
{
    EXPECT_DOUBLE_EQ(parseF64("1e-4").value(), 1e-4);
    EXPECT_DOUBLE_EQ(parseF64("0.5").value(), 0.5);
    EXPECT_FALSE(parseF64("").ok());
    EXPECT_FALSE(parseF64("0.5x").ok());
}

TEST(CheckLevelParse, RoundTrips)
{
    EXPECT_EQ(parseCheckLevel("off").value(), CheckLevel::Off);
    EXPECT_EQ(parseCheckLevel("paddr").value(), CheckLevel::Paddr);
    EXPECT_EQ(parseCheckLevel("full").value(), CheckLevel::Full);
    EXPECT_FALSE(parseCheckLevel("sometimes").ok());
}

// --- fault-spec grammar ----------------------------------------------

TEST(FaultSpecParse, ParsesFullGrammar)
{
    const auto r =
        parseFaultSpecs("ppn-flip@l1-4k:1e-4,drop-inv:0.001,tag-flip");
    ASSERT_TRUE(r.ok());
    const auto &specs = r.value();
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].kind, FaultKind::PpnFlip);
    EXPECT_EQ(specs[0].target, FaultTarget::L1Tlb4K);
    EXPECT_DOUBLE_EQ(specs[0].probability, 1e-4);
    EXPECT_EQ(specs[1].kind, FaultKind::DropInvalidation);
    EXPECT_EQ(specs[1].target, FaultTarget::Any);
    EXPECT_DOUBLE_EQ(specs[1].probability, 0.001);
    EXPECT_EQ(specs[2].kind, FaultKind::TagFlip);
    EXPECT_DOUBLE_EQ(specs[2].probability, 1e-4); // default
}

TEST(FaultSpecParse, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseFaultSpecs("").ok());
    EXPECT_FALSE(parseFaultSpecs("melt-down").ok());
    EXPECT_FALSE(parseFaultSpecs("ppn-flip@l7").ok());
    EXPECT_FALSE(parseFaultSpecs("ppn-flip:maybe").ok());
    EXPECT_FALSE(parseFaultSpecs("ppn-flip:2.0").ok());
    // Structural faults have no meaning on range TLBs.
    EXPECT_FALSE(parseFaultSpecs("drop-inv@l1-range").ok());
}

// --- golden shadow translator ----------------------------------------

TEST(ShadowTranslatorTest, SnapshotsPagesAndRanges)
{
    vm::PageTable pt;
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    pt.map(4_MiB, 16_MiB, PageSize::Size2M);
    vm::RangeTable rt;
    rt.insert({0x1000, 0x3000, 0x200000});

    ShadowTranslator golden(pt, &rt);
    EXPECT_EQ(golden.pageCount(), 2u);
    EXPECT_EQ(golden.rangeCount(), 1u);

    const auto p4k = golden.translatePage(0x1234);
    ASSERT_TRUE(p4k.has_value());
    EXPECT_EQ(p4k->paddr(0x1234), 0x200234u);
    EXPECT_EQ(p4k->size, PageSize::Size4K);

    const auto p2m = golden.translatePage(4_MiB + 0x567);
    ASSERT_TRUE(p2m.has_value());
    EXPECT_EQ(p2m->paddr(4_MiB + 0x567), 16_MiB + 0x567);
    EXPECT_EQ(p2m->size, PageSize::Size2M);

    EXPECT_FALSE(golden.translatePage(64_MiB).has_value());

    const auto r = golden.translateRange(0x2abc);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->paddr(0x2abc), 0x201abcu);
    EXPECT_FALSE(golden.translateRange(0x3000).has_value());
}

TEST(ShadowTranslatorTest, RebuildSeesNewMappings)
{
    vm::PageTable pt;
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    ShadowTranslator golden(pt, nullptr);
    EXPECT_EQ(golden.pageCount(), 1u);

    pt.map(0x2000, 0x201000, PageSize::Size4K);
    EXPECT_FALSE(golden.translatePage(0x2000).has_value()); // stale
    golden.rebuild();
    ASSERT_TRUE(golden.translatePage(0x2000).has_value());
    EXPECT_EQ(golden.translatePage(0x2000)->paddr(0x2000), 0x201000u);
}

/**
 * Tallies where a golden translator and the OS tables disagree, keeping
 * the first disagreement's description for the failure message.
 */
struct OsTableAgreement
{
    const ShadowTranslator &golden;
    const vm::MemoryManager &mm;
    std::uint64_t checked = 0;
    std::uint64_t disagreements = 0;
    std::string first{};

    void
    check(Addr vaddr)
    {
        ++checked;
        const auto page = golden.translatePage(vaddr);
        const auto wantPage = mm.pageTable().translate(vaddr);
        const bool pageOk =
            page.has_value() == wantPage.has_value() &&
            (!wantPage || (page->vbase == wantPage->vbase &&
                           page->pbase == wantPage->pbase &&
                           page->size == wantPage->size));
        const auto range = golden.translateRange(vaddr);
        const auto wantRange = mm.rangeTable().lookup(vaddr);
        const bool rangeOk = range == wantRange;
        if (pageOk && rangeOk)
            return;
        if (++disagreements == 1) {
            first = detail::cat("vaddr 0x", std::hex, vaddr,
                                pageOk ? "" : ": page translation differs",
                                rangeOk ? "" : ": range translation differs");
        }
    }

    /** Each region's first byte, last byte and one byte past it. */
    void
    checkRegionEdges(const std::vector<vm::Region> &regions)
    {
        for (const auto &r : regions) {
            check(r.vbase);
            check(r.vlimit() - 1);
            check(r.vlimit());
        }
    }
};

/** Pins ShadowTranslator to PageTable::translate and RangeTable::lookup
 *  over real address spaces, before and after OS churn. */
class ShadowTranslatorOsTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ShadowTranslatorOsTest, AgreesWithThePageAndRangeTables)
{
    constexpr std::uint64_t kSeed = 1;
    constexpr unsigned kStreamOps = 10'000;
    const auto spec = workloads::findWorkload(GetParam());
    ASSERT_TRUE(spec.has_value());

    for (const core::MmuOrg org : core::allOrgs()) {
        SCOPED_TRACE(core::orgName(org));
        sim::SimConfig cfg;
        cfg.workload = *spec;
        cfg.mmu = core::MmuConfig::make(org);
        // The address space and stream the engine builds for this cell.
        const auto mm = mc::makeAddressSpace(cfg, {*spec}, kSeed);
        workloads::WorkloadGenerator gen(*spec, *mm, kSeed);
        const std::vector<vm::Region> &regions = gen.regions();
        ASSERT_FALSE(regions.empty());
        ShadowTranslator golden(mm->pageTable(), &mm->rangeTable());

        auto expectAgreement = [&](const char *phase) {
            SCOPED_TRACE(phase);
            OsTableAgreement agree{golden, *mm};
            agree.checkRegionEdges(regions);
            for (unsigned i = 0; i < kStreamOps; ++i)
                agree.check(gen.next().vaddr);
            EXPECT_EQ(agree.checked, 3 * regions.size() + kStreamOps);
            EXPECT_EQ(agree.disagreements, 0u) << agree.first;
        };
        expectAgreement("initial snapshot");

        // The engine's OS churn: the largest region is demoted and then
        // promoted under the THP policies, compacted under the others.
        const vm::Region *largest = &regions[0];
        for (const auto &r : regions) {
            if (r.bytes > largest->bytes)
                largest = &r;
        }
        if (mm->policy().transparentHugePages) {
            mm->demoteRegion(*largest);
            golden.rebuild();
            expectAgreement("after demotion");
            mm->promoteRegion(*largest);
            golden.rebuild();
            expectAgreement("after promotion");
        } else {
            mm->compactRegion(*largest);
            golden.rebuild();
            expectAgreement("after compaction");
        }
    }
}

// mcf maps few runs, omnetpp many (97 in a fig10-grid snapshot), and
// canneal both 4 KB and 2 MB runs under THP.
INSTANTIATE_TEST_SUITE_P(OsTables, ShadowTranslatorOsTest,
                         ::testing::Values("mcf", "omnetpp", "canneal"));

// --- the checker fires on corrupted TLB state ------------------------

class CheckerTest : public ::testing::Test
{
  protected:
    vm::PageTable pt;
    vm::RangeTable rt;
};

TEST_F(CheckerTest, CleanMmuProducesNoMismatches)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    pt.map(0x2000, 0x201000, PageSize::Size4K);
    core::Mmu mmu(core::MmuConfig::make(core::MmuOrg::Base4K), pt,
                  nullptr);
    ShadowChecker checker(CheckLevel::Full, pt, nullptr);
    mmu.setChecker(&checker);

    for (int i = 0; i < 10; ++i) {
        mmu.access(0x1000 + 0x100 * static_cast<Addr>(i));
        mmu.access(0x2000 + 0x100 * static_cast<Addr>(i));
    }
    EXPECT_EQ(checker.stats().translationChecks, 20u);
    EXPECT_EQ(checker.stats().mismatches(), 0u);
    EXPECT_TRUE(checker.verdict().ok());
    EXPECT_TRUE(checker.firstMismatch().empty());
}

TEST_F(CheckerTest, CatchesCorruptedPpnInL1)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    core::Mmu mmu(core::MmuConfig::make(core::MmuOrg::Base4K), pt,
                  nullptr);
    ShadowChecker checker(CheckLevel::Full, pt, nullptr);
    mmu.setChecker(&checker);

    mmu.access(0x1234); // walk + fill; clean
    ASSERT_EQ(checker.stats().mismatches(), 0u);

    // Flip a PPN bit of the only valid L1 entry behind the MMU's back.
    ASSERT_TRUE(mmu.l1Tlb4K().corruptRandomEntry(0, /*flipTag=*/false));

    mmu.access(0x1678); // hits the corrupted entry
    EXPECT_EQ(checker.stats().paddrMismatches, 1u);
    EXPECT_FALSE(checker.verdict().ok());
    EXPECT_FALSE(checker.firstMismatch().empty());
}

TEST_F(CheckerTest, CatchesDroppedInvalidationViaWayMaskAudit)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    core::Mmu mmu(core::MmuConfig::make(core::MmuOrg::Base4K), pt,
                  nullptr);
    mmu.access(0x1234); // one valid entry

    auto &tlb = mmu.l1Tlb4K();
    tlb.armDropInvalidation();
    tlb.setActiveWays(1); // victims should be invalidated — but aren't

    ShadowChecker checker(CheckLevel::Full, pt, nullptr);
    if (tlb.validInDisabledWays() > 0) {
        checker.auditWayMask(tlb);
        EXPECT_EQ(checker.stats().wayMaskViolations, 1u);
        EXPECT_FALSE(checker.verdict().ok());
    } else {
        // The entry happened to live in way 0 and survived the shrink;
        // the audit then rightly stays quiet.
        checker.auditWayMask(tlb);
        EXPECT_EQ(checker.stats().wayMaskViolations, 0u);
    }
}

TEST_F(CheckerTest, CatchesSpuriousWayEnable)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    core::Mmu mmu(core::MmuConfig::make(core::MmuOrg::Base4K), pt,
                  nullptr);
    auto &tlb = mmu.l1Tlb4K();
    tlb.forceActiveWays(3); // not a power of two

    ShadowChecker checker(CheckLevel::Full, pt, nullptr);
    checker.auditWayMask(tlb);
    EXPECT_EQ(checker.stats().wayMaskViolations, 1u);
}

TEST_F(CheckerTest, LiteGivesASpuriouslyEnabledTlbItsWaysBack)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    auto cfg = core::MmuConfig::make(core::MmuOrg::TlbLite);
    cfg.lite.fullActivationProbability = 0.0;
    core::Mmu mmu(cfg, pt, nullptr);
    ShadowChecker checker(CheckLevel::Full, pt, nullptr);
    mmu.setChecker(&checker);

    mmu.access(0x1234);
    mmu.tick(cfg.lite.intervalInstructions); // Lite shrinks to 1 way
    auto &tlb = mmu.l1Tlb4K();
    ASSERT_EQ(tlb.activeWays(), 1u);

    // The glitch a spurious-enable fault makes: a way count Lite's
    // profiler cannot measure. Hits go on, and the audit reports it.
    tlb.forceActiveWays(3);
    for (int i = 0; i < 128; ++i)
        mmu.access(0x1234 + i * 8);
    // Two audits saw the glitch; it is one fault, counted once.
    EXPECT_GE(checker.stats().wayMaskAudits, 2u);
    EXPECT_EQ(checker.stats().wayMaskViolations, 1u);

    mmu.tick(cfg.lite.intervalInstructions);
    EXPECT_EQ(tlb.activeWays(), tlb.ways());
    EXPECT_EQ(mmu.lite()->stats().degradationActivations, 0u);
}

TEST_F(CheckerTest, EachWayMaskGlitchCountsOnce)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    auto cfg = core::MmuConfig::make(core::MmuOrg::TlbLite);
    cfg.lite.fullActivationProbability = 0.0;
    core::Mmu mmu(cfg, pt, nullptr);
    ShadowChecker checker(CheckLevel::Full, pt, nullptr);
    mmu.setChecker(&checker);
    auto &tlb = mmu.l1Tlb4K();
    auto hits = [&] { // 128 L1 hits: two audits of every TLB
        for (int i = 0; i < 128; ++i)
            mmu.access(0x1234 + i * 8);
    };

    mmu.access(0x1234);
    mmu.tick(cfg.lite.intervalInstructions); // Lite shrinks to 1 way
    ASSERT_EQ(tlb.activeWays(), 1u);

    // The first glitch lasts until Lite gives the TLB its ways back;
    // audits in between find the mask legal again.
    tlb.forceActiveWays(3);
    hits();
    mmu.tick(cfg.lite.intervalInstructions);
    ASSERT_EQ(tlb.activeWays(), tlb.ways());
    hits();
    EXPECT_EQ(checker.stats().wayMaskViolations, 1u);

    // The same glitch again is a second fault.
    tlb.forceActiveWays(3);
    hits();
    EXPECT_EQ(checker.stats().wayMaskViolations, 2u);
    EXPECT_EQ(checker.stats().mismatches(), 2u);
    EXPECT_NE(checker.firstMismatch().find("illegal active-way count 3"),
              std::string::npos);
}

TEST_F(CheckerTest, PaddrLevelSkipsWayMaskAudits)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    core::Mmu mmu(core::MmuConfig::make(core::MmuOrg::Base4K), pt,
                  nullptr);
    auto &tlb = mmu.l1Tlb4K();
    tlb.forceActiveWays(3);

    ShadowChecker checker(CheckLevel::Paddr, pt, nullptr);
    checker.auditWayMask(tlb);
    EXPECT_EQ(checker.stats().wayMaskAudits, 0u);
    EXPECT_EQ(checker.stats().mismatches(), 0u);
}

// --- end-to-end: injection through simulate() ------------------------

sim::SimConfig
injectConfig(const std::string &spec)
{
    sim::SimConfig cfg;
    cfg.workload = *workloads::findWorkload("mcf");
    cfg.mmu = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.fastForwardInstructions = 50'000;
    cfg.simulateInstructions = 500'000;
    cfg.checkLevel = CheckLevel::Full;
    cfg.faultSpec = spec;
    return cfg;
}

TEST(FaultInjection, InjectedFaultsAreDetected)
{
    const auto r = sim::simulate(injectConfig("ppn-flip@l1-4k:1e-3"));
    EXPECT_GT(r.inject.ppnFlips, 0u);
    EXPECT_GT(r.check.mismatches(), 0u);
    EXPECT_FALSE(r.firstMismatch.empty());
}

TEST(FaultInjection, DeterministicUnderFixedSeed)
{
    const auto a = sim::simulate(
        injectConfig("tag-flip:1e-4,ppn-flip:1e-4,drop-inv:1e-4"));
    const auto b = sim::simulate(
        injectConfig("tag-flip:1e-4,ppn-flip:1e-4,drop-inv:1e-4"));
    EXPECT_EQ(a.inject.tagFlips, b.inject.tagFlips);
    EXPECT_EQ(a.inject.ppnFlips, b.inject.ppnFlips);
    EXPECT_EQ(a.inject.droppedInvalidations, b.inject.droppedInvalidations);
    EXPECT_EQ(a.check.mismatches(), b.check.mismatches());
    EXPECT_EQ(a.firstMismatch, b.firstMismatch);
    EXPECT_GT(a.inject.injected(), 0u);
}

TEST(FaultInjection, SeedChangesTheFaultStream)
{
    auto cfg = injectConfig("ppn-flip:1e-3");
    const auto a = sim::simulate(cfg);
    cfg.seed = 777;
    const auto b = sim::simulate(cfg);
    // Different seed, different opportunity draws.
    EXPECT_NE(a.check.mismatches(), b.check.mismatches());
}

TEST(FaultInjection, CleanRunsStayClean)
{
    auto cfg = injectConfig("");
    const auto r = sim::simulate(cfg);
    EXPECT_EQ(r.inject.injected(), 0u);
    EXPECT_EQ(r.check.mismatches(), 0u);
    EXPECT_GT(r.check.translationChecks, 0u);
}

// --- MmuConfig::validate ---------------------------------------------

TEST(ConfigValidate, CanonicalOrgsAreValid)
{
    for (const auto org : core::allOrgs())
        EXPECT_TRUE(core::MmuConfig::make(org).validate().ok())
            << core::orgName(org);
}

TEST(ConfigValidate, RejectsBadGeometry)
{
    auto cfg = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.l1Tlb4K.ways = 3; // non-power-of-two associativity
    EXPECT_FALSE(cfg.validate().ok());

    cfg = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.l1Tlb4K.entries = 0;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.l2Tlb = {100, 8}; // entries not divisible into sets
    EXPECT_FALSE(cfg.validate().ok());

    cfg = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.l1Tlb4K = {96, 4}; // 24 sets: not a power of two
    EXPECT_FALSE(cfg.validate().ok());
}

TEST(ConfigValidate, RejectsIncoherentFeatureFlags)
{
    auto cfg = core::MmuConfig::make(core::MmuOrg::TlbPP);
    cfg.combinedFullyAssocL1 = true; // mixed and combined are exclusive
    EXPECT_FALSE(cfg.validate().ok());

    cfg = core::MmuConfig::make(core::MmuOrg::TlbPP);
    cfg.liteEnabled = true; // no Lite on the mixed organization
    EXPECT_FALSE(cfg.validate().ok());

    cfg = core::MmuConfig::make(core::MmuOrg::RmmLite);
    cfg.hasL2Range = false; // L1-range requires L2-range backing
    EXPECT_FALSE(cfg.validate().ok());
}

TEST(ConfigValidate, RejectsOutOfRangeKnobs)
{
    auto cfg = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.walkL1CacheHitRatio = 1.5;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.clockGhz = 0.0;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = core::MmuConfig::make(core::MmuOrg::TlbLite);
    cfg.lite.fullActivationProbability = -0.1;
    EXPECT_FALSE(cfg.validate().ok());
}

TEST(ConfigValidate, MmuConstructorRefusesInvalidConfig)
{
    vm::PageTable pt;
    auto cfg = core::MmuConfig::make(core::MmuOrg::Thp);
    cfg.l1Tlb4K.ways = 3;
    EXPECT_THROW(core::Mmu(cfg, pt, nullptr), std::runtime_error);
}

} // namespace
} // namespace eat::check
