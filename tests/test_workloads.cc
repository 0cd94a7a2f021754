/**
 * @file
 * Tests for the workload substrate: spans, pattern primitives, the
 * operation generator, and the named suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "workloads/pattern.hh"
#include "workloads/suite.hh"
#include "workloads/workload.hh"

namespace eat::workloads
{
namespace
{

Span
singleExtent(Addr base, std::uint64_t bytes)
{
    return Span({Extent{base, bytes}});
}

TEST(Span, ConcatenatesExtents)
{
    Span s({Extent{0x1000, 0x1000}, Extent{0x100000, 0x2000}});
    EXPECT_EQ(s.bytes(), 0x3000u);
    EXPECT_EQ(s.addrAt(0), 0x1000u);
    EXPECT_EQ(s.addrAt(0xfff), 0x1fffu);
    EXPECT_EQ(s.addrAt(0x1000), 0x100000u);
    EXPECT_EQ(s.addrAt(0x2fff), 0x101fffu);
    EXPECT_THROW(s.addrAt(0x3000), std::logic_error);
}

TEST(Span, FromRegions)
{
    std::vector<vm::Region> regions{{0x1000, 4096}, {0x9000, 8192}};
    auto s = Span::fromRegions(regions);
    EXPECT_EQ(s.bytes(), 12288u);
    EXPECT_EQ(s.numExtents(), 2u);
}

TEST(Patterns, UniformStaysInSpan)
{
    UniformRandomPattern p(singleExtent(0x10000, 0x4000));
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = p.next(rng, 0);
        EXPECT_GE(a, 0x10000u);
        EXPECT_LT(a, 0x14000u);
        EXPECT_EQ(a % 8, 0u); // word aligned
    }
}

TEST(Patterns, WorkingSetRespectsLevels)
{
    WorkingSetPattern p(singleExtent(0, 1_MiB),
                        {{4096, 0.9}, {1_MiB, 0.1}});
    Rng rng(2);
    int inHot = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        inHot += p.next(rng, 0) < 4096 ? 1 : 0;
    // ~90% + the 10% tail that also lands in the first page.
    EXPECT_NEAR(inHot / static_cast<double>(n), 0.9 + 0.1 * 4096.0 / 1_MiB,
                0.02);
}

TEST(Patterns, SequentialWrapsWithStride)
{
    SequentialPattern p(singleExtent(0x1000, 0x100), 64);
    Rng rng(3);
    EXPECT_EQ(p.next(rng, 0), 0x1000u);
    EXPECT_EQ(p.next(rng, 0), 0x1040u);
    EXPECT_EQ(p.next(rng, 0), 0x1080u);
    EXPECT_EQ(p.next(rng, 0), 0x10c0u);
    EXPECT_EQ(p.next(rng, 0), 0x1000u); // wrapped
}

TEST(Patterns, StridedShiftsPhasePerSweep)
{
    StridedPattern p(singleExtent(0, 0x2000), 0x1000);
    Rng rng(4);
    EXPECT_EQ(p.next(rng, 0), 0x0u);
    EXPECT_EQ(p.next(rng, 0), 0x1000u);
    // Second sweep starts at the next element (phase 64).
    EXPECT_EQ(p.next(rng, 0), 0x40u);
    EXPECT_EQ(p.next(rng, 0), 0x1040u);
}

TEST(Patterns, LocalWalkStaysInSpan)
{
    LocalWalkPattern p(singleExtent(0x100000, 0x10000), 0x1000, 0.05);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = p.next(rng, 0);
        EXPECT_GE(a, 0x100000u);
        EXPECT_LT(a, 0x110000u);
    }
}

TEST(Patterns, RegionHotsetFavorsHotRegions)
{
    std::vector<vm::Region> regions;
    for (int i = 0; i < 10; ++i)
        regions.push_back({static_cast<Addr>(i) * 0x100000, 0x10000});
    RegionHotsetPattern p(regions, 2, 0.9);
    Rng rng(6);
    int hot = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        hot += p.next(rng, 0) < 0x200000 ? 1 : 0;
    // 90% hot picks + 20% of the cold picks land in regions 0-1.
    EXPECT_NEAR(hot / static_cast<double>(n), 0.92, 0.02);
}

TEST(Patterns, RegionHotsetWindowsAreStaggeredAndPageAligned)
{
    EXPECT_EQ(RegionHotsetPattern::windowOffset(0, 1_MiB, 8192) % 4096,
              0u);
    std::set<std::uint64_t> offsets;
    for (std::size_t i = 0; i < 8; ++i)
        offsets.insert(RegionHotsetPattern::windowOffset(i, 1_MiB, 8192));
    EXPECT_GT(offsets.size(), 4u); // mostly distinct
    // A window as large as the region sits at offset 0.
    EXPECT_EQ(RegionHotsetPattern::windowOffset(3, 8192, 8192), 0u);
}

TEST(Patterns, MixtureUsesWeights)
{
    std::vector<PatternPtr> kids;
    kids.push_back(
        std::make_unique<UniformRandomPattern>(singleExtent(0, 0x1000)));
    kids.push_back(std::make_unique<UniformRandomPattern>(
        singleExtent(0x100000, 0x1000)));
    MixturePattern p(std::move(kids), {0.25, 0.75});
    Rng rng(7);
    int second = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        second += p.next(rng, 0) >= 0x100000 ? 1 : 0;
    EXPECT_NEAR(second / static_cast<double>(n), 0.75, 0.02);
}

TEST(Patterns, PhasedRotatesOnInstructionClock)
{
    std::vector<PatternPtr> kids;
    kids.push_back(
        std::make_unique<SequentialPattern>(singleExtent(0, 0x1000), 64));
    kids.push_back(std::make_unique<SequentialPattern>(
        singleExtent(0x100000, 0x1000), 64));
    PhasedPattern p(std::move(kids), 1000);
    Rng rng(8);
    EXPECT_LT(p.next(rng, 0), 0x1000u);
    EXPECT_LT(p.next(rng, 999), 0x1000u);
    EXPECT_GE(p.next(rng, 1000), 0x100000u);
    EXPECT_LT(p.next(rng, 2000), 0x1000u); // wrapped back
}

TEST(Generator, GapAverageMatchesOpDensity)
{
    WorkloadSpec spec;
    spec.name = "g";
    spec.memOpsPerKiloInstr = 300;
    spec.allocs = {{1_MiB, 1}};
    spec.buildPattern = [](const std::vector<vm::Region> &r) {
        return std::make_unique<UniformRandomPattern>(
            Span::fromRegions(r));
    };
    vm::MemoryManager mm(vm::OsPolicy{}, 16_MiB);
    WorkloadGenerator gen(spec, mm, 1);
    std::uint64_t ops = 0;
    while (gen.instructionsRetired() < 300'000)
        (void)gen.next(), ++ops;
    EXPECT_NEAR(static_cast<double>(ops), 90'000.0, 2.0);
}

TEST(Generator, DeterministicPerSeed)
{
    auto stream = [](std::uint64_t seed) {
        auto spec = *findWorkload("astar");
        vm::MemoryManager mm(vm::OsPolicy{}, 1_GiB);
        WorkloadGenerator gen(spec, mm, seed);
        std::vector<Addr> v;
        for (int i = 0; i < 2000; ++i)
            v.push_back(gen.next().vaddr);
        return v;
    };
    EXPECT_EQ(stream(1), stream(1));
    EXPECT_NE(stream(1), stream(2));
}

TEST(Generator, SkipAdvancesInstructionClock)
{
    auto spec = *findWorkload("mcf");
    vm::MemoryManager mm(vm::OsPolicy{}, 3_GiB);
    WorkloadGenerator gen(spec, mm, 1);
    gen.skip(1'000'000);
    EXPECT_GE(gen.instructionsRetired(), 1'000'000u);
    EXPECT_LT(gen.instructionsRetired(), 1'000'100u);
}

/** A one-region generator spec at @p opsPerKilo memory ops per 1000
 *  instructions, for tests of the instruction clock. */
WorkloadSpec
densitySpec(unsigned opsPerKilo)
{
    WorkloadSpec spec;
    spec.name = "density";
    spec.memOpsPerKiloInstr = opsPerKilo;
    spec.allocs = {{64_KiB, 1}};
    spec.buildPattern = [](const std::vector<vm::Region> &r) {
        return std::make_unique<SequentialPattern>(Span::fromRegions(r), 64);
    };
    return spec;
}

TEST(Generator, GapsMatchTheDivisionReference)
{
    // Each gap is floor((carry + 1000) / d) with the remainder carried,
    // the definition the generator must keep whatever arithmetic it
    // uses. Over 3d ops every carry value the density allows comes up.
    for (const unsigned d : {1u, 3u, 7u, 300u, 400u, 999u, 1000u}) {
        vm::MemoryManager mm(vm::OsPolicy{}, 16_MiB);
        WorkloadGenerator gen(densitySpec(d), mm, 1);
        std::uint64_t carry = 0;
        InstrCount now = 0;
        for (unsigned i = 0; i < 3 * d; ++i) {
            carry += 1000;
            const InstrCount gap = std::max<std::uint64_t>(carry / d, 1);
            carry %= d;
            now += gap;
            const MemOp op = gen.next();
            ASSERT_EQ(op.instrGap, gap) << "d=" << d << " op " << i;
            ASSERT_EQ(gen.instructionsRetired(), now) << "d=" << d;
        }
        EXPECT_EQ(now, 3000u) << "d=" << d; // 3d ops span 3000 exactly
    }
}

TEST(Patterns, PhasedFollowsAnyClockItIsGiven)
{
    // Child i streams inside [i MiB, i MiB + 4 KiB), so an address names
    // the phase that produced it.
    constexpr InstrCount kLen = 1000;
    std::vector<PatternPtr> kids;
    for (Addr i = 0; i < 3; ++i) {
        kids.push_back(std::make_unique<SequentialPattern>(
            singleExtent(i * 1_MiB, 0x1000), 64));
    }
    PhasedPattern p(std::move(kids), kLen);
    Rng rng(9);
    auto phaseOf = [&](InstrCount now) { return p.next(rng, now) / 1_MiB; };
    // A decreasing clock, crossing phase edges from above.
    for (const InstrCount now :
         {5999u, 5000u, 4999u, 3001u, 3000u, 2999u, 1000u, 999u, 0u})
        EXPECT_EQ(phaseOf(now), (now / kLen) % 3) << "now=" << now;
    // A jumping clock: far ahead, back, and across several phases.
    for (const InstrCount now :
         {InstrCount{7}, InstrCount{1'000'000'001}, InstrCount{2'500},
          InstrCount{2'999}, InstrCount{7'000}, InstrCount{3'000'000'000'000},
          InstrCount{3'000'000'000'999}, InstrCount{1'001}, InstrCount{0}})
        EXPECT_EQ(phaseOf(now), (now / kLen) % 3) << "now=" << now;
}

TEST(Span, EqualExtentsResolveAtEveryEdge)
{
    // Five equal extents at scattered bases; probe each extent's first
    // and last byte in an order that keeps missing the last-extent memo.
    for (const std::uint64_t size : {std::uint64_t{3 * 4096},
                                      std::uint64_t{16_KiB}}) {
        const Addr bases[] = {0x7000000, 0x1000000, 0x9000000, 0x3000000,
                              0x5000000};
        std::vector<Extent> extents;
        for (const Addr b : bases)
            extents.push_back({b, size});
        const Span s(std::move(extents));
        ASSERT_EQ(s.bytes(), 5 * size);
        for (const std::size_t k : {4u, 0u, 2u, 1u, 3u, 0u, 4u}) {
            EXPECT_EQ(s.addrAt(k * size), bases[k]) << size << " " << k;
            EXPECT_EQ(s.addrAt(k * size + size - 1), bases[k] + size - 1)
                << size << " " << k;
        }
        for (std::size_t k = 0; k < 5; ++k) {
            EXPECT_EQ(s.addrAt(k * size + size - 1), bases[k] + size - 1);
            EXPECT_EQ(s.addrAt(k * size), bases[k]);
        }
        EXPECT_THROW(s.addrAt(5 * size), std::logic_error);
    }
}

TEST(Patterns, SequentialStrideAtLeastTheSpanWraps)
{
    for (const std::uint64_t stride : {0x100u, 0x180u, 0x1040u}) {
        SequentialPattern p(singleExtent(0x1000, 0x100), stride);
        Rng rng(3);
        std::uint64_t cursor = 0;
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(p.next(rng, 0), 0x1000 + cursor)
                << "stride " << stride << " op " << i;
            cursor = (cursor + stride) % 0x100;
        }
    }
}

TEST(Patterns, LocalWalkWrapsAtBothEnds)
{
    // With no jumps the walk draws one step per op; replay the draws
    // against the modular reference and require wraps past both ends.
    constexpr Addr kBase = 0x200000;
    constexpr std::uint64_t kSize = 0x100;
    for (const std::uint64_t maxStep : {std::uint64_t{0x40}, kSize - 1}) {
        LocalWalkPattern p(singleExtent(kBase, kSize), maxStep, 0.0);
        Rng rng(11);
        Rng ref(11);
        std::uint64_t pos = 0;
        bool wrappedLow = false;
        bool wrappedHigh = false;
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t step = ref.below(2 * maxStep + 1);
            wrappedLow |= pos + step < maxStep;
            wrappedHigh |= pos + step >= maxStep + kSize;
            pos = (pos + kSize + step - maxStep) % kSize;
            ASSERT_EQ(p.next(rng, 0), (kBase + pos) & ~Addr{7})
                << "maxStep " << maxStep << " op " << i;
        }
        EXPECT_TRUE(wrappedLow) << maxStep;
        EXPECT_TRUE(wrappedHigh) << maxStep;
    }
}

/**
 * FNV-1a 64 over (vaddr, instrGap), low byte first, of the first
 * @p ops ops of @p spec's stream at @p seed after skip(@p skip).
 */
std::uint64_t
streamHash(const WorkloadSpec &spec, std::uint64_t seed, InstrCount skip,
           unsigned ops)
{
    vm::OsPolicy policy;
    policy.transparentHugePages = true;
    vm::MemoryManager mm(policy, spec.footprintBytes() +
                                     spec.footprintBytes() / 4 + 256_MiB);
    WorkloadGenerator gen(spec, mm, seed);
    gen.skip(skip);
    std::uint64_t h = 14695981039346656037ull;
    auto fold = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte, v >>= 8) {
            h ^= v & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (unsigned i = 0; i < ops; ++i) {
        const MemOp op = gen.next();
        fold(op.vaddr);
        fold(op.instrGap);
    }
    return h;
}

TEST(Generator, StreamsMatchTheirGoldenHashes)
{
    // Pins every workload's op stream bit for bit: the hash of its first
    // 200k ops after skip(12345) at seed 7. A generator change that is
    // meant to keep the streams must leave every hash alone. After an
    // intended stream change, run this test and copy the "new hash" each
    // failing workload prints into its row.
    const std::pair<const char *, std::uint64_t> golden[] = {
        {"astar", 0x7ea122ce766cb2f0ull},
        {"cactusADM", 0xd44c0a81e504c7a7ull},
        {"GemsFDTD", 0x7f2ebda32e18d970ull},
        {"mcf", 0x99f5ba64f430f4a7ull},
        {"omnetpp", 0xadb1fdc8303bc9ceull},
        {"zeusmp", 0x36aebcea1b355a1aull},
        {"mummer", 0x73a961edf6d6e342ull},
        {"canneal", 0xb947dc5a95487a38ull},
        {"bwaves", 0xab82edbc20d75f67ull},
        {"bzip2", 0xb122bccd1b2a254cull},
        {"dealII", 0x4d6601471afa04c1ull},
        {"gamess", 0x2a73755a29a9a009ull},
        {"gcc", 0x7a33e3c27347dffbull},
        {"gobmk", 0xa32fb5fcb68e6ab1ull},
        {"gromacs", 0xc5ccedeb0f168787ull},
        {"h264ref", 0x1d57a95df931717dull},
        {"hmmer", 0x1f495161d125eb1full},
        {"lbm", 0x86ca84c26c9fbcdbull},
        {"leslie3d", 0xaa23d1cec2ad73fdull},
        {"libquantum", 0xb6d840eef95804f2ull},
        {"milc", 0x31349bdc693131e9ull},
        {"namd", 0xb0ca9037eb3f4446ull},
        {"perlbench", 0xbdc65019a70fb2eeull},
        {"povray", 0xba1f51931946e503ull},
        {"sjeng", 0xc9a2ef27294fb3b3ull},
        {"soplex", 0x29a73b705d56ab58ull},
        {"sphinx3", 0x0af6b00062b0931bull},
        {"tonto", 0xa3724453544bdffeull},
        {"wrf", 0x1573c6dd5f956c05ull},
        {"xalancbmk", 0x2aa8d0d008c07118ull},
        {"blackscholes", 0x98b93532d4847502ull},
        {"bodytrack", 0x750fb97b20171960ull},
        {"dedup", 0x3e3a8c64c8463618ull},
        {"facesim", 0xc25c6e0f8506988eull},
        {"ferret", 0x2512510f6362e7f2ull},
        {"fluidanimate", 0x09d40e1c25839f43ull},
        {"freqmine", 0x1ba102152db2bea9ull},
        {"raytrace", 0x8781b883def47b95ull},
        {"streamcluster", 0x41631bd23ba9cbdeull},
        {"swaptions", 0x290401c98ef30e07ull},
        {"vips", 0x54f6c57ec26da5f1ull},
        {"x264", 0x088caed4d5c8e344ull},
    };
    const auto all = allWorkloads();
    for (const auto &spec : all) {
        const std::uint64_t hash = streamHash(spec, 7, 12345, 200'000);
        const auto it = std::find_if(
            std::begin(golden), std::end(golden),
            [&](const auto &row) { return spec.name == row.first; });
        ASSERT_NE(it, std::end(golden)) << spec.name << " has no row";
        EXPECT_EQ(hash, it->second)
            << spec.name << " changed its stream; new hash 0x" << std::hex
            << hash << std::dec;
    }
    EXPECT_EQ(std::size(golden), all.size());
}

TEST(Suite, ContainsThePaperWorkloads)
{
    const auto &intensive = tlbIntensiveSuite();
    ASSERT_EQ(intensive.size(), 8u);
    for (const char *name : {"astar", "cactusADM", "GemsFDTD", "mcf",
                             "omnetpp", "zeusmp", "mummer", "canneal"}) {
        EXPECT_TRUE(findWorkload(name).has_value()) << name;
        EXPECT_TRUE(findWorkload(name)->tlbIntensive) << name;
    }
    EXPECT_EQ(spec2006OtherSuite().size(), 22u);
    EXPECT_EQ(parsecOtherSuite().size(), 12u);
    EXPECT_FALSE(findWorkload("nosuchworkload").has_value());
}

TEST(Suite, FootprintsMatchTable4Bands)
{
    // Table 4 footprints (paper): astar 350 MB, cactusADM 690 MB,
    // GemsFDTD 860 MB, mcf 1.7 GB, omnetpp 165 MB, zeusmp 530 MB,
    // mummer 470 MB, canneal 780 MB. Allow 20% modeling slack.
    const std::pair<const char *, double> expect[] = {
        {"astar", 350}, {"cactusADM", 690}, {"GemsFDTD", 860},
        {"mcf", 1700},  {"omnetpp", 165},   {"zeusmp", 530},
        {"mummer", 470}, {"canneal", 780},
    };
    for (const auto &[name, mib] : expect) {
        const auto w = findWorkload(name);
        ASSERT_TRUE(w.has_value());
        const double actual =
            static_cast<double>(w->footprintBytes()) / 1_MiB;
        EXPECT_GT(actual, mib * 0.8) << name;
        EXPECT_LT(actual, mib * 1.2) << name;
    }
}

TEST(Suite, AllWorkloadsBuildAndGenerate)
{
    for (const auto &spec : allWorkloads()) {
        vm::OsPolicy policy;
        policy.transparentHugePages = true;
        vm::MemoryManager mm(policy,
                             spec.footprintBytes() +
                                 spec.footprintBytes() / 4 + 256_MiB);
        WorkloadGenerator gen(spec, mm, 1);
        // Every generated address must be mapped.
        for (int i = 0; i < 200; ++i) {
            const auto op = gen.next();
            ASSERT_TRUE(mm.pageTable().translate(op.vaddr).has_value())
                << spec.name << " generated unmapped address";
            ASSERT_GE(op.instrGap, 1u);
        }
    }
}

TEST(Suite, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second)
            << "duplicate workload " << w.name;
}

} // namespace
} // namespace eat::workloads
