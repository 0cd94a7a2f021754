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
 *    that core, with every other core's checker silent;
 *  - a handful of long runs keep the outcome digests recorded in
 *    tests/golden/mc_long_digests.txt;
 *  - a generator or Mmu exception reaches the caller at the same op
 *    whether the engine generates inline or pipes the stream, and no
 *    producer thread outlives the run.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "check/shadow_checker.hh"
#include "mc/mc_simulator.hh"
#include "mc/mix.hh"
#include "qa/oracles.hh"
#include "sim/simulator.hh"
#include "workloads/pattern.hh"

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

/** FNV-1a 64 of @p bytes. */
std::uint64_t
fnv64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * The long runs pinned in tests/golden/mc_long_digests.txt: 600k
 * instructions per core, above kPipeMinWindow, so every task's stream
 * comes through its op pipe. They cover a 5k quantum, 2 and 4 cores,
 * private and shared spaces, more tasks than cores, churn under both
 * coherence modes, nested paging, the L3 cache tier, a fault plan on
 * core 1 and in-memory provenance.
 */
std::map<std::string, McConfig>
longRuns()
{
    auto longRun = [](core::MmuOrg org, unsigned cores,
                      const std::string &mix) {
        McConfig cfg = mcConfig(org, cores, mix);
        cfg.base.simulateInstructions = 600'000;
        cfg.base.fastForwardInstructions = 50'000;
        cfg.quantumInstructions = 5'000;
        return cfg;
    };
    std::map<std::string, McConfig> runs;

    McConfig ipi = longRun(core::MmuOrg::Thp, 2, "mcf,canneal,astar");
    ipi.remapInterval = 100'000;
    runs.emplace("thp-2c-private-churn-ipi", ipi);

    McConfig hw = longRun(core::MmuOrg::RmmLite, 2, "astar,omnetpp");
    hw.sharedAddressSpace = true;
    hw.remapInterval = 100'000;
    hw.coherence = McConfig::CoherenceMode::Hw;
    runs.emplace("rmmlite-2c-shared-churn-hw", hw);

    McConfig vm =
        longRun(core::MmuOrg::TlbLite, 4, "mcf,canneal,omnetpp,astar");
    vm.base.mmu.vmEnabled = true;
    vm.remapInterval = 150'000;
    vm.coherence = McConfig::CoherenceMode::Hw;
    runs.emplace("tlblite-4c-private-vm-paged-hw", vm);

    McConfig l3 = longRun(core::MmuOrg::Base4K, 2, "mcf,gcc");
    l3.base.mmu.enableL3(l3::L3Mode::Cache);
    l3.base.faultSpec = "ppn-flip@l1-4k:0.001";
    l3.faultCore = 1;
    runs.emplace("4kb-2c-l3-cache-fault-core1", l3);

    McConfig prov = longRun(core::MmuOrg::Rmm, 4, "canneal,gcc");
    prov.sharedAddressSpace = true;
    prov.remapInterval = 200'000;
    prov.base.provenanceEnabled = true;
    runs.emplace("rmm-4c-shared-provenance", prov);
    return runs;
}

TEST(McSimulator, LongRunsMatchTheirGoldenDigests)
{
    // Each line of the golden file is a run label and the FNV-1a 64 of
    // that run's mcResultDigest.
    const std::string path =
        std::string(EAT_CORPUS_DIR) + "/../golden/mc_long_digests.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden digest file " << path;

    const auto runs = longRuns();
    std::string label, hex;
    unsigned checked = 0;
    while (in >> label >> hex) {
        const auto run = runs.find(label);
        ASSERT_NE(run, runs.end()) << "unknown run in golden file: " << label;
        const auto hash = fnv64(qa::mcResultDigest(mcSimulate(run->second)));
        EXPECT_EQ(hash, std::stoull(hex, nullptr, 16))
            << label << " changed outcome; new digest hash " << std::hex
            << std::setw(16) << std::setfill('0') << hash << std::dec;
        ++checked;
    }
    EXPECT_EQ(checked, runs.size());
}

/** An op index no run reaches. */
constexpr std::uint64_t kNoOp = std::numeric_limits<std::uint64_t>::max();

/** The address FaultyPattern strays to: nothing maps it. */
constexpr Addr kStrayAddr = Addr{0x7f} << 40;

/**
 * Walks its workload's first region a page per op. Op @c panicAt
 * (counting from 1) panics; from op @c strayAt on it returns
 * kStrayAddr, which the page walker rejects.
 */
class FaultyPattern final : public workloads::AccessPattern
{
  public:
    FaultyPattern(vm::Region region, std::uint64_t panicAt,
                  std::uint64_t strayAt)
        : region_(region), panicAt_(panicAt), strayAt_(strayAt)
    {
    }

    Addr
    next(Rng &, InstrCount) override
    {
        ++ops_;
        if (ops_ == panicAt_)
            eat_panic("pattern gave up at op ", ops_);
        if (ops_ >= strayAt_)
            return kStrayAddr;
        return region_.vbase + ops_ % (region_.bytes / 4_KiB) * 4_KiB;
    }

  private:
    vm::Region region_;
    std::uint64_t panicAt_;
    std::uint64_t strayAt_;
    std::uint64_t ops_ = 0;
};

/** A workload of one op per instruction over FaultyPattern. */
workloads::WorkloadSpec
faultySpec(std::uint64_t panicAt, std::uint64_t strayAt = kNoOp)
{
    workloads::WorkloadSpec spec;
    spec.name = "faulty";
    spec.memOpsPerKiloInstr = 1000;
    spec.allocs = {{64_MiB, 1}};
    spec.buildPattern = [=](const std::vector<vm::Region> &regions) {
        return std::make_unique<FaultyPattern>(regions.front(), panicAt,
                                               strayAt);
    };
    return spec;
}

/** Fast-forward of the faulty runs: ops 1..kFaultySkip. */
constexpr InstrCount kFaultySkip = 10'000;
/** Per-core windows below and above the engine's pipe threshold. */
constexpr InstrCount kInlineWindow = kPipeMinWindow - 100'000;
constexpr InstrCount kPipedWindow = kPipeMinWindow + 100'000;

McConfig
faultyRun(InstrCount window, std::vector<workloads::WorkloadSpec> mix)
{
    McConfig cfg;
    cfg.base = baseConfig(core::MmuOrg::Thp);
    cfg.base.simulateInstructions = window;
    cfg.base.fastForwardInstructions = kFaultySkip;
    cfg.base.workload = mix.front();
    cfg.cores = static_cast<unsigned>(mix.size());
    cfg.mix = std::move(mix);
    return cfg;
}

/** What mcSimulate(@p cfg) throws, or "" when it returns. */
std::string
thrownBy(const McConfig &cfg)
{
    try {
        (void)mcSimulate(cfg);
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

std::ptrdiff_t
threadCount()
{
    return std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator());
}

TEST(McSimulator, GeneratorPanicSurfacesAtItsOpInlineAndPiped)
{
    // Both windows reach this op.
    const std::uint64_t panicAt = kFaultySkip + kInlineWindow / 2;
    const std::string message =
        "panic: pattern gave up at op " + std::to_string(panicAt);
    EXPECT_EQ(thrownBy(faultyRun(kInlineWindow, {faultySpec(panicAt)})),
              message);
    EXPECT_EQ(thrownBy(faultyRun(kPipedWindow, {faultySpec(panicAt)})),
              message);

    // The window's last op panics on the piped path too...
    const std::uint64_t lastOp = kFaultySkip + kPipedWindow;
    EXPECT_EQ(thrownBy(faultyRun(kPipedWindow, {faultySpec(lastOp)})),
              "panic: pattern gave up at op " + std::to_string(lastOp));
    // ...but a panic the producer runs into past the window's end is
    // never asked for: the run keeps the outcome of a clean pattern.
    const auto clean =
        mcSimulate(faultyRun(kPipedWindow, {faultySpec(kNoOp)}));
    const auto past =
        mcSimulate(faultyRun(kPipedWindow, {faultySpec(lastOp + 1)}));
    EXPECT_EQ(qa::mcResultDigest(past), qa::mcResultDigest(clean));
}

TEST(McSimulator, MmuPanicLeavesNoProducerRunning)
{
    // Task 0 strays out of its space mid-window and the page walker
    // panics inside the quantum loop, with task 1's producer running
    // too on the piped path. The exception reaches the caller and
    // every producer is joined on the way out.
    const std::string message =
        "panic: page walk of unmapped address " + std::to_string(kStrayAddr);
    for (const InstrCount window : {kInlineWindow, kPipedWindow}) {
        SCOPED_TRACE(window);
        const auto before = threadCount();
        EXPECT_EQ(thrownBy(faultyRun(
                      window, {faultySpec(kNoOp, kFaultySkip + 200'000),
                               faultySpec(kNoOp)})),
                  message);
        // A joined thread can linger in /proc for a moment while the
        // kernel finishes its exit.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (threadCount() > before &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_LE(threadCount(), before);
    }
}

} // namespace
} // namespace eat::mc
