#include "sim/simulator.hh"

#include <algorithm>
#include <fstream>
#include <memory>

#include "base/logging.hh"
#include "core/mmu.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "stats/counter.hh"
#include "vm/memory_manager.hh"
#include "workloads/trace.hh"

namespace eat::sim
{

double
SimResult::energyPerKiloInstr() const
{
    if (stats.instructions == 0)
        return 0.0;
    return totalEnergy() * 1000.0 /
           static_cast<double>(stats.instructions);
}

double
SimResult::missCyclesPerKiloInstr() const
{
    if (stats.instructions == 0)
        return 0.0;
    return static_cast<double>(stats.tlbMissCycles()) * 1000.0 /
           static_cast<double>(stats.instructions);
}

double
SimResult::simKips() const
{
    return obs::simKips(stats.instructions, profile.total());
}

namespace
{

/** Build the OS memory manager for one run's configuration. */
vm::MemoryManager
makeMemoryManager(const SimConfig &config)
{
    std::uint64_t physBytes = config.physBytes;
    if (physBytes == 0) {
        const std::uint64_t footprint = config.workload.footprintBytes();
        physBytes = alignUp(footprint + footprint / 4 + 256_MiB, 2_MiB);
    }
    auto policy = config.mmu.osPolicy();
    if (config.eagerRangesPerRegion > 0)
        policy.eagerRangesPerRegion = config.eagerRangesPerRegion;
    return vm::MemoryManager(policy, physBytes,
                             config.seed ^ 0x05f5e0ffull);
}

/** Holds the optional self-checking companions of one run. */
struct CheckHarness
{
    std::unique_ptr<check::ShadowChecker> checker;
    std::unique_ptr<check::FaultInjector> injector;

    /**
     * Build the checker/injector the config asks for and attach them to
     * @p mmu. Must run after the workload's allocations so the golden
     * snapshot sees the full address space.
     */
    CheckHarness(const SimConfig &config, const vm::MemoryManager &mm,
                 const vm::RangeTable *rangeTable, core::Mmu &mmu)
    {
        if (config.checkLevel != check::CheckLevel::Off) {
            checker = std::make_unique<check::ShadowChecker>(
                config.checkLevel, mm.pageTable(), rangeTable);
            mmu.setChecker(checker.get());
        }
        if (!config.faultSpec.empty()) {
            auto specs = check::parseFaultSpecs(config.faultSpec);
            if (!specs.ok())
                eat_fatal(specs.status().message());
            injector = std::make_unique<check::FaultInjector>(
                std::move(specs.value()), config.seed);
            injector->registerPageTlb(&mmu.l1Tlb4K(),
                                      check::FaultTarget::L1Tlb4K);
            injector->registerPageTlb(mmu.l1Tlb2M(),
                                      check::FaultTarget::L1Tlb2M);
            injector->registerPageTlb(mmu.l1Tlb1G(),
                                      check::FaultTarget::L1Tlb1G);
            injector->registerPageTlb(&mmu.l2Tlb(),
                                      check::FaultTarget::L2Tlb);
            injector->registerRangeTlb(mmu.l1RangeTlb(),
                                       check::FaultTarget::L1Range);
            injector->registerRangeTlb(mmu.l2RangeTlb(),
                                       check::FaultTarget::L2Range);
        }
    }

    /** Copy the harness outcome into @p result. */
    void
    finish(const SimConfig &config, SimResult &result) const
    {
        result.checkLevel = config.checkLevel;
        if (checker) {
            result.check = checker->stats();
            result.firstMismatch = checker->firstMismatch();
        }
        if (injector)
            result.inject = injector->stats();
    }
};

/** Holds the optional observability outputs of one run. */
struct ObsHarness
{
    std::unique_ptr<obs::TelemetrySink> telemetry;
    std::unique_ptr<obs::TraceWriter> trace;
    std::unique_ptr<obs::ProvenanceSink> provenance;

    /** Open the outputs the config asks for and attach them. */
    ObsHarness(const SimConfig &config, core::Mmu &mmu,
               const CheckHarness &harness)
    {
        eat_assert(config.provenanceSampleEvery >= 1,
                   "provenance sample rate must be >= 1");
        if (!config.provenancePath.empty()) {
            if (!obs::kProvenanceCompiledIn) {
                eat_fatal("this build has no provenance hooks "
                          "(EAT_PROVENANCE=OFF); cannot write '",
                          config.provenancePath, "'");
            }
            auto sink = obs::ProvenanceSink::open(
                config.provenancePath, config.provenanceSampleEvery);
            if (!sink.ok())
                eat_fatal(sink.status().message());
            provenance = std::move(sink.value());
        } else if (config.provenanceEnabled &&
                   obs::kProvenanceCompiledIn) {
            // In-memory accumulation only: exact totals for the
            // reconciliation oracle, no event stream.
            provenance = std::make_unique<obs::ProvenanceSink>(
                config.provenanceSampleEvery);
        }
        if (provenance)
            mmu.setProvenance(provenance.get());
        if (!config.telemetryPath.empty()) {
            auto sink = obs::TelemetrySink::open(config.telemetryPath);
            if (!sink.ok())
                eat_fatal(sink.status().message());
            telemetry = std::move(sink.value());
            mmu.setTelemetry(telemetry.get());
            if (harness.injector)
                mmu.setInjectStats(&harness.injector->stats());
        }
        if (!config.traceOutPath.empty()) {
            trace = std::make_unique<obs::TraceWriter>();
            mmu.setTrace(trace.get());
            if (harness.checker)
                harness.checker->setTrace(trace.get());
            if (harness.injector)
                harness.injector->setTrace(trace.get());
        }
    }

    /** Flush the outputs, snapshot the registry, fill @p result. */
    void
    finish(const SimConfig &config, const core::Mmu &mmu,
           const CheckHarness &harness, SimResult &result)
    {
        if (telemetry) {
            result.telemetryRecords = telemetry->recordsEmitted();
            eat_check_fatal(telemetry->close());
        }
        if (trace) {
            result.traceEvents = trace->eventsRecorded();
            result.traceEventsDropped = trace->eventsDropped();
            eat_check_fatal(trace->write(config.traceOutPath));
        }
        if (provenance) {
            eat_check_fatal(provenance->close());
            result.provenanceEnabled = true;
            result.provenance = provenance->summary();
        }
        if (!config.metricsPath.empty()) {
            obs::MetricRegistry registry;
            mmu.registerMetrics(registry);
            if (harness.checker)
                harness.checker->registerMetrics(registry);
            if (harness.injector)
                harness.injector->registerMetrics(registry);
            std::ofstream out(config.metricsPath,
                              std::ios::out | std::ios::trunc);
            if (!out) {
                eat_fatal("cannot open metrics file '", config.metricsPath,
                          "'");
            }
            registry.writeJson(out);
            out << '\n';
            out.flush();
            if (!out.good()) {
                eat_fatal("error writing metrics file '",
                          config.metricsPath, "'");
            }
        }
    }
};

} // namespace

SimResult
simulate(const SimConfig &config)
{
    eat_assert(config.simulateInstructions > 0, "empty measured window");

    obs::StageProfiler profiler;
    profiler.start("setup");

    // --- OS setup: map the workload under this configuration's policy.
    vm::MemoryManager mm = makeMemoryManager(config);

    workloads::WorkloadGenerator gen(config.workload, mm, config.seed);

    // --- hardware setup.
    const vm::RangeTable *rangeTable =
        (config.mmu.hasL1Range || config.mmu.hasL2Range)
            ? &mm.rangeTable()
            : nullptr;
    core::Mmu mmu(config.mmu, mm.pageTable(), rangeTable);
    CheckHarness harness(config, mm, rangeTable, mmu);
    ObsHarness outputs(config, mmu, harness);

    // --- fast-forward: advance the generator without touching the MMU
    // (the TLBs start cold at the measurement window, as with the
    // paper's Pin-based skip).
    if (config.fastForwardInstructions > 0) {
        profiler.start("fast-forward");
        gen.skip(config.fastForwardInstructions);
    }

    // --- measured window.
    profiler.start("simulate");
    SimResult result;
    result.workloadName = config.workload.name;
    result.org = config.mmu.org;
    result.mpkiTimeline = stats::Timeline(config.timelineInterval);

    const InstrCount start = gen.instructionsRetired();
    const InstrCount end = start + config.simulateInstructions;

    InstrCount nextSample =
        config.timelineInterval ? config.timelineInterval : 0;
    std::uint64_t missesAtSample = 0;
    InstrCount instrAtSample = 0;

    while (gen.instructionsRetired() < end) {
        const auto op = gen.next();
        if (harness.injector)
            harness.injector->tick();
        mmu.tick(op.instrGap);
        mmu.access(op.vaddr);

        if (config.timelineInterval) {
            const InstrCount elapsed = gen.instructionsRetired() - start;
            while (nextSample && elapsed >= nextSample) {
                const auto &s = mmu.stats();
                const std::uint64_t dMiss = s.l1Misses - missesAtSample;
                const InstrCount dInstr = s.instructions - instrAtSample;
                result.mpkiTimeline.record(stats::mpki(dMiss, dInstr));
                missesAtSample = s.l1Misses;
                instrAtSample = s.instructions;
                nextSample += config.timelineInterval;
            }
        }
    }

    // Flush the final partial window so the timeline covers the whole
    // measured run (the tail used to be silently dropped).
    if (config.timelineInterval) {
        const auto &s = mmu.stats();
        const std::uint64_t dMiss = s.l1Misses - missesAtSample;
        const InstrCount dInstr = s.instructions - instrAtSample;
        if (dInstr > 0)
            result.mpkiTimeline.record(stats::mpki(dMiss, dInstr));
    }

    profiler.start("report");
    result.stats = mmu.stats();
    result.energy = mmu.energyReport();
    if (mmu.lite()) {
        result.lite = mmu.lite()->stats();
        result.liteEnabled = true;
    }
    harness.finish(config, result);
    outputs.finish(config, mmu, harness, result);

    result.pages4K = mm.pageTable().pageCount(vm::PageSize::Size4K);
    result.pages2M = mm.pageTable().pageCount(vm::PageSize::Size2M);
    result.numRanges = mm.rangeTable().size();
    result.rangeCoverage = mm.rangeCoverage();
    result.profile = profiler.timings();
    return result;
}

SimResult
simulateFromTrace(const SimConfig &config, const std::string &tracePath)
{
    obs::StageProfiler profiler;
    profiler.start("setup");

    // Same address-space setup as simulate(): the trace's addresses
    // are only meaningful against identical regions.
    vm::MemoryManager mm = makeMemoryManager(config);
    workloads::WorkloadGenerator gen(config.workload, mm, config.seed);
    (void)gen; // performs the allocations; the stream comes from disk

    const vm::RangeTable *rangeTable =
        (config.mmu.hasL1Range || config.mmu.hasL2Range)
            ? &mm.rangeTable()
            : nullptr;
    core::Mmu mmu(config.mmu, mm.pageTable(), rangeTable);
    CheckHarness harness(config, mm, rangeTable, mmu);
    ObsHarness outputs(config, mmu, harness);

    profiler.start("simulate");
    workloads::TraceReader reader(tracePath);
    while (auto op = reader.next()) {
        if (harness.injector)
            harness.injector->tick();
        mmu.tick(op->instrGap);
        mmu.access(op->vaddr);
    }

    profiler.start("report");
    SimResult result;
    result.workloadName = config.workload.name + " (trace)";
    result.org = config.mmu.org;
    result.stats = mmu.stats();
    result.energy = mmu.energyReport();
    if (mmu.lite()) {
        result.lite = mmu.lite()->stats();
        result.liteEnabled = true;
    }
    harness.finish(config, result);
    outputs.finish(config, mmu, harness, result);
    result.pages4K = mm.pageTable().pageCount(vm::PageSize::Size4K);
    result.pages2M = mm.pageTable().pageCount(vm::PageSize::Size2M);
    result.numRanges = mm.rangeTable().size();
    result.rangeCoverage = mm.rangeCoverage();
    result.profile = profiler.timings();
    return result;
}

std::uint64_t
recordTrace(const SimConfig &config, const std::string &tracePath)
{
    vm::MemoryManager mm = makeMemoryManager(config);
    workloads::WorkloadGenerator gen(config.workload, mm, config.seed);
    if (config.fastForwardInstructions > 0)
        gen.skip(config.fastForwardInstructions);

    workloads::TraceWriter writer(tracePath);
    const InstrCount end =
        gen.instructionsRetired() + config.simulateInstructions;
    while (gen.instructionsRetired() < end)
        writer.write(gen.next());
    eat_check_fatal(writer.close());
    return writer.recordsWritten();
}

} // namespace eat::sim
