#include "traced_sim.hh"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "base/logging.hh"
#include "core/mmu.hh"
#include "obs/telemetry.hh"

namespace perfbench
{

using namespace eat;

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsBetween(std::uint64_t from, std::uint64_t to)
{
    return static_cast<double>(to - from) * 1e-9;
}

} // namespace

vm::MemoryManager
buildMemoryManager(const sim::SimConfig &config)
{
    std::uint64_t physBytes = config.physBytes;
    if (physBytes == 0) {
        const std::uint64_t footprint = config.workload.footprintBytes();
        physBytes = alignUp(footprint + footprint / 4 + 256_MiB, 2_MiB);
    }
    auto policy = config.mmu.osPolicy();
    if (config.eagerRangesPerRegion > 0)
        policy.eagerRangesPerRegion = config.eagerRangesPerRegion;
    return vm::MemoryManager(policy, physBytes, config.seed ^ 0x05f5e0ffull);
}

sim::SimResult
tracedSimulate(const sim::SimConfig &config, LayerSpans &spans)
{
    if (!config.traceOutPath.empty() || !config.metricsPath.empty())
        throw std::invalid_argument("traced driver: trace-out and metrics "
                                    "outputs are not supported");
    if (config.simulateInstructions == 0)
        throw std::invalid_argument("traced driver: empty measured window");

    // --- OS setup, as sim::simulate() builds it.
    std::uint64_t t = nowNs();
    vm::MemoryManager mm = buildMemoryManager(config);
    std::uint64_t u = nowNs();
    spans.mmBuild.add(secondsBetween(t, u));

    workloads::WorkloadGenerator gen(config.workload, mm, config.seed);
    t = nowNs();
    spans.genBuild.add(secondsBetween(u, t));

    // --- hardware setup.
    const vm::RangeTable *rangeTable =
        (config.mmu.hasL1Range || config.mmu.hasL2Range)
            ? &mm.rangeTable()
            : nullptr;
    core::Mmu mmu(config.mmu, mm.pageTable(), rangeTable);
    u = nowNs();
    spans.mmuBuild.add(secondsBetween(t, u));

    std::unique_ptr<check::ShadowChecker> checker;
    if (config.checkLevel != check::CheckLevel::Off) {
        checker = std::make_unique<check::ShadowChecker>(
            config.checkLevel, mm.pageTable(), rangeTable);
        mmu.setChecker(checker.get());
    }
    t = nowNs();
    spans.checkBuild.add(secondsBetween(u, t));

    std::unique_ptr<check::FaultInjector> injector;
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
        injector->registerPageTlb(&mmu.l2Tlb(), check::FaultTarget::L2Tlb);
        injector->registerRangeTlb(mmu.l1RangeTlb(),
                                   check::FaultTarget::L1Range);
        injector->registerRangeTlb(mmu.l2RangeTlb(),
                                   check::FaultTarget::L2Range);
    }

    // --- observability outputs, attached in simulate()'s order.
    std::unique_ptr<obs::ProvenanceSink> provenance;
    if (!config.provenancePath.empty()) {
        auto sink = obs::ProvenanceSink::open(config.provenancePath,
                                              config.provenanceSampleEvery);
        if (!sink.ok())
            eat_fatal(sink.status().message());
        provenance = std::move(sink.value());
    } else if (config.provenanceEnabled && obs::kProvenanceCompiledIn) {
        provenance = std::make_unique<obs::ProvenanceSink>(
            config.provenanceSampleEvery);
    }
    if (provenance)
        mmu.setProvenance(provenance.get());
    std::unique_ptr<obs::TelemetrySink> telemetry;
    if (!config.telemetryPath.empty()) {
        auto sink = obs::TelemetrySink::open(config.telemetryPath);
        if (!sink.ok())
            eat_fatal(sink.status().message());
        telemetry = std::move(sink.value());
        mmu.setTelemetry(telemetry.get());
        if (injector)
            mmu.setInjectStats(&injector->stats());
    }
    mmu.setFrontCacheEnabled(config.frontCache && !injector);

    // --- fast-forward.
    if (config.fastForwardInstructions > 0) {
        u = nowNs();
        gen.skip(config.fastForwardInstructions);
        spans.skip.add(secondsBetween(u, nowNs()));
    }

    // Empty spans, taken under the window's host load.
    for (int i = 0; i < 4096; ++i) {
        const std::uint64_t before = nowNs();
        spans.floor.add(nowNs() - before);
    }

    // --- measured window: one span per call, three clock reads per op.
    const InstrCount end =
        gen.instructionsRetired() + config.simulateInstructions;
    const lite::LiteController *lite = mmu.lite();
    const core::MmuStats &stats = mmu.stats();
    std::uint64_t prev = nowNs();
    while (gen.instructionsRetired() < end) {
        const auto op = gen.next();
        std::uint64_t t1 = nowNs();
        spans.next.add(t1 - prev);
        if (injector) {
            injector->tick();
            t1 = nowNs();
        }

        const std::uint64_t intervals = lite ? lite->stats().intervals : 0;
        mmu.tick(op.instrGap);
        const std::uint64_t t2 = nowNs();
        if (lite && lite->stats().intervals != intervals)
            spans.tickInterval.add(t2 - t1);
        else
            spans.tick.add(t2 - t1);

        const std::uint64_t l1Hits = stats.l1Hits;
        const std::uint64_t l2Hits = stats.l2Hits;
        const std::uint64_t l3Probes = stats.l3Probes;
        mmu.access(op.vaddr);
        prev = nowNs();
        const std::uint64_t ns = prev - t2;
        if (stats.l1Hits != l1Hits)
            spans.accessL1.add(ns);
        else if (stats.l2Hits != l2Hits)
            spans.accessL2.add(ns);
        else if (stats.l3Probes != l3Probes)
            spans.accessL3.add(ns);
        else
            spans.accessWalk.add(ns);
    }

    // --- report, as simulate() fills its result.
    sim::SimResult result;
    result.workloadName = config.workload.name;
    result.org = config.mmu.org;
    result.mpkiTimeline = stats::Timeline(config.timelineInterval);
    result.stats = mmu.stats();
    result.energy = mmu.energyReport();
    result.frontCacheHits = mmu.frontCacheHits();
    if (lite) {
        result.lite = lite->stats();
        result.liteEnabled = true;
    }
    result.checkLevel = config.checkLevel;
    if (checker) {
        result.check = checker->stats();
        result.firstMismatch = checker->firstMismatch();
    }
    if (injector)
        result.inject = injector->stats();
    if (telemetry) {
        result.telemetryRecords = telemetry->recordsEmitted();
        eat_check_fatal(telemetry->close());
    }
    if (provenance) {
        eat_check_fatal(provenance->close());
        result.provenanceEnabled = true;
        result.provenance = provenance->summary();
    }
    result.pages4K = mm.pageTable().pageCount(vm::PageSize::Size4K);
    result.pages2M = mm.pageTable().pageCount(vm::PageSize::Size2M);
    result.numRanges = mm.rangeTable().size();
    result.rangeCoverage = mm.rangeCoverage();
    return result;
}

} // namespace perfbench
