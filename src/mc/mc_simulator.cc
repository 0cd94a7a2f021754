#include "mc/mc_simulator.hh"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <thread>

#include "base/logging.hh"
#include "core/mmu.hh"
#include "mc/coherence.hh"
#include "mc/mix.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "stats/counter.hh"
#include "workloads/trace.hh"

namespace eat::mc
{

namespace
{

/**
 * A generated task's operation pipe: a producer thread runs the task's
 * generator ahead of the simulating thread into a single-producer,
 * single-consumer ring. The stream never reads MMU, page-table or
 * checker state, so producing it early changes no outcome. Once the
 * pipe exists only the producer touches the generator; ops the
 * consumer has not taken wait in the ring for the task's next quantum.
 * A generator exception reaches the consumer at the op where inline
 * generation would have thrown. The destructor stops and joins the
 * producer.
 *
 * The ring has pages of its own, outside the malloc heap: its chunk,
 * freed back into a long-lived process's heap, left a hole that small
 * long-lived allocations pinned, and a benchmark process running one
 * cell after another grew its peak RSS by 3 MB.
 */
class OpPipe
{
  public:
    explicit OpPipe(workloads::WorkloadGenerator &gen)
        : producer_([this, &gen] { produce(gen); })
    {
    }

    OpPipe(const OpPipe &) = delete;
    OpPipe &operator=(const OpPipe &) = delete;

    ~OpPipe()
    {
        // Hand every slot back, so a producer waiting for room wakes
        // and sees the stop request.
        stop_.store(true);
        tail_.store(head_.load(std::memory_order_acquire),
                    std::memory_order_release);
        tail_.notify_one();
        producer_.join();
        munmap(ring_, kRingBytes);
    }

    /** The next operation; blocks while the producer is behind. */
    workloads::MemOp
    next()
    {
        if (read_ == readEnd_)
            refill();
        return ring_[read_++ & kMask];
    }

  private:
    static constexpr std::uint32_t kCapacity = 16384; ///< power of two
    static constexpr std::uint32_t kMask = kCapacity - 1;
    static constexpr std::uint32_t kBatch = 256; ///< ops per hand-over
    /** A producer waiting for room is woken once per half ring. */
    static constexpr std::uint32_t kWakeEvery = kCapacity / 2;
    /** How long a consumer facing an empty ring spins before it sleeps. */
    static constexpr std::chrono::microseconds kSpin{50};
    static constexpr std::size_t kRingBytes =
        kCapacity * sizeof(workloads::MemOp);

    static workloads::MemOp *
    mapRing()
    {
        void *pages = mmap(nullptr, kRingBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (pages == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<workloads::MemOp *>(pages);
    }

    /** Hand the consumed batch back and take the next one. */
    void
    refill()
    {
        tail_.store(read_, std::memory_order_release);
        if (read_ % kWakeEvery == 0)
            tail_.notify_one();
        std::uint32_t head = head_.load(std::memory_order_acquire);
        if (head == read_) {
            // A producer that is behind is usually mid-batch, and a
            // batch takes less time to generate than a sleeping thread
            // takes to wake: spin before sleeping. Yielding in the spin
            // hands the core over when a sweep has more threads than
            // cores.
            const auto deadline = std::chrono::steady_clock::now() + kSpin;
            do {
                std::this_thread::yield();
                head = head_.load(std::memory_order_acquire);
            } while (head == read_ &&
                     std::chrono::steady_clock::now() < deadline);
        }
        while (head == read_) {
            head_.wait(head, std::memory_order_acquire);
            head = head_.load(std::memory_order_acquire);
        }
        std::uint32_t ready = head - read_;
        if (failed_.load(std::memory_order_acquire)) {
            ready = std::min(ready, failAt_ - read_);
            if (ready == 0)
                std::rethrow_exception(error_);
        }
        readEnd_ = read_ + std::min(ready, kBatch);
    }

    void
    produce(workloads::WorkloadGenerator &gen)
    {
        std::uint32_t head = 0;
        try {
            while (!stop_.load(std::memory_order_relaxed)) {
                const std::uint32_t tail =
                    tail_.load(std::memory_order_acquire);
                if (head - tail > kCapacity - kBatch) {
                    tail_.wait(tail, std::memory_order_acquire);
                    continue;
                }
                for (std::uint32_t i = 0; i < kBatch; ++i, ++head)
                    ring_[head & kMask] = gen.next();
                head_.store(head, std::memory_order_release);
                head_.notify_one();
            }
        } catch (...) {
            failAt_ = head;
            error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
            // One past the last good op, so the published count moves
            // even when the failure opened a batch.
            head_.store(head + 1, std::memory_order_release);
            head_.notify_one();
        }
    }

    workloads::MemOp *const ring_ = mapRing();

    // Op counts modulo 2^32; an op's slot is its count's low bits.
    // Producer side: published ops, and the failure hand-over.
    alignas(64) std::atomic<std::uint32_t> head_{0};
    std::atomic<bool> failed_{false};
    std::uint32_t failAt_ = 0; ///< ops generated before the exception
    std::exception_ptr error_;

    // Consumer side: consumed ops, the stop request, and the batch
    // being read.
    alignas(64) std::atomic<std::uint32_t> tail_{0};
    std::atomic<bool> stop_{false};
    std::uint32_t read_ = 0;
    std::uint32_t readEnd_ = 0;

    std::thread producer_; ///< last: starts once the rest is built
};

/** One scheduled task: a workload stream bound to an address space. */
struct Task
{
    workloads::WorkloadSpec spec;
    tlb::Asid asid = 0;
    vm::MemoryManager *mm = nullptr; ///< not owned (shared mode aliases)
    const vm::RangeTable *rangeTable = nullptr;
    /** The generator's regions, for OS churn: a piped generator
     *  belongs to its producer thread. */
    std::vector<vm::Region> regions;
    std::unique_ptr<workloads::WorkloadGenerator> gen;
    /** Runs @c gen ahead when the window is long enough; declared
     *  after it, so it is joined before the generator goes. */
    std::unique_ptr<OpPipe> pipe;
    InstrCount retired = 0;    ///< measured instructions, all cores
    InstrCount sinceChurn = 0; ///< instructions since the last OS pass
    bool demoteNext = true;    ///< THP churn alternates demote/promote
    std::uint64_t remapEvents = 0;
};

/** The seed of task @p t's generator; task 0 keeps the config seed, so
 *  a one-task run is the single-core run of that seed. */
std::uint64_t
taskSeed(const McConfig &config, unsigned t)
{
    return config.base.seed + t * 0x9e3779b97f4a7c15ull;
}

/**
 * One OS churn pass over @p task's largest region: THP policies
 * alternate demotion and promotion; everything else attempts a
 * compaction (which fails gracefully when no contiguous block fits).
 * Any page-table rewrite fires the remap listener, i.e. the shootdown.
 */
void
churnTask(Task &task)
{
    const auto &regions = task.regions;
    if (regions.empty())
        return;
    const vm::Region *target = &regions[0];
    for (const auto &r : regions) {
        if (r.bytes > target->bytes)
            target = &r;
    }
    bool changed = false;
    if (task.mm->policy().transparentHugePages) {
        changed = task.demoteNext ? task.mm->demoteRegion(*target) > 0
                                  : task.mm->promoteRegion(*target) > 0;
        task.demoteNext = !task.demoteNext;
    } else {
        changed = task.mm->compactRegion(*target);
    }
    if (changed)
        ++task.remapEvents;
}

/** The sample point of a run without an MPKI timeline. */
constexpr InstrCount kNever = std::numeric_limits<InstrCount>::max();

/** One core's Figure-4 MPKI timeline and the counters at its last
 *  sample. */
struct CoreTimeline
{
    stats::Timeline samples;
    InstrCount nextSample;
    std::uint64_t missesAtSample = 0;
    InstrCount instrAtSample = 0;

    explicit CoreTimeline(InstrCount interval)
        : samples(interval), nextSample(interval ? interval : kNever)
    {
    }

    /** Close every window ending at or before @p retired instructions
     *  of the core's measured window. */
    void
    sample(InstrCount retired, const core::MmuStats &s)
    {
        while (retired >= nextSample) {
            record(s);
            nextSample += samples.intervalInstructions();
        }
    }

    /** Close the final partial window, so the timeline covers the
     *  whole measured run. */
    void
    flush(const core::MmuStats &s)
    {
        if (samples.intervalInstructions() && s.instructions > instrAtSample)
            record(s);
    }

  private:
    void
    record(const core::MmuStats &s)
    {
        samples.record(stats::mpki(s.l1Misses - missesAtSample,
                                   s.instructions - instrAtSample));
        missesAtSample = s.l1Misses;
        instrAtSample = s.instructions;
    }
};

/** A generated task's operations: the stream never runs dry. */
struct GeneratedOps
{
    workloads::WorkloadGenerator &gen;

    bool
    next(workloads::MemOp &op)
    {
        op = gen.next();
        return true;
    }
};

/** A piped task's operations, produced ahead on the pipe's thread. */
struct PipedOps
{
    OpPipe &pipe;

    bool
    next(workloads::MemOp &op)
    {
        op = pipe.next();
        return true;
    }
};

/** A replayed task's operations: dry at the end of the trace. */
struct ReplayedOps
{
    workloads::TraceReader &reader;

    bool
    next(workloads::MemOp &op)
    {
        const auto read = reader.next();
        if (read)
            op = *read;
        return read.has_value();
    }
};

/**
 * The per-operation loop of one quantum: feed @p ops to @p mmu until
 * the core has retired @p end instructions or the source runs dry
 * (@p dry is then set). @p injector is null unless @p mmu is the fault
 * core's. Returns the core's retired instruction count.
 */
template <typename Ops>
InstrCount
runQuantum(Ops ops, core::Mmu &mmu, check::FaultInjector *injector,
           CoreTimeline &timeline, InstrCount retired, InstrCount end,
           bool &dry)
{
    InstrCount nextSample = timeline.nextSample;
    workloads::MemOp op;
    while (retired < end) {
        if (!ops.next(op)) {
            dry = true;
            break;
        }
        if (injector)
            injector->tick();
        mmu.tick(op.instrGap);
        mmu.access(op.vaddr);
        retired += op.instrGap;
        if (retired >= nextSample) {
            timeline.sample(retired, mmu.stats());
            nextSample = timeline.nextSample;
        }
    }
    return retired;
}

/** The engine behind mcSimulate() and mcReplay(): the trace at
 *  @p replayPath, when given, is the one task's operation stream. */
McResult
runEngine(const McConfig &config, const std::string *replayPath)
{
    eat_assert(config.cores >= 1 && config.cores <= kMaxCores,
               "core count ", config.cores, " out of range");
    eat_assert(!config.mix.empty(), "empty workload mix");
    eat_assert(config.base.simulateInstructions > 0,
               "empty measured window");
    eat_assert(config.quantumInstructions > 0, "empty scheduler quantum");
    eat_assert(config.faultCore < config.cores,
               "fault core ", config.faultCore, " beyond core count");
    eat_assert(!replayPath || (config.cores == 1 && config.mix.size() == 1),
               "a trace replays on one core with one workload");

    obs::StageProfiler profiler;
    profiler.start("setup");

    const unsigned cores = config.cores;
    const unsigned numTasks = static_cast<unsigned>(
        std::max<std::size_t>(cores, config.mix.size()));
    const bool wantRange =
        config.base.mmu.hasL1Range || config.base.mmu.hasL2Range;
    auto specOf = [&config](unsigned t) -> const workloads::WorkloadSpec & {
        return config.mix[t % config.mix.size()];
    };

    // --- address spaces. Private mode: one per task, every one
    // starting at the same virtual base, so the spaces overlap and the
    // ASID tags are load-bearing. Shared mode: one space, every task
    // in its own region of it.
    std::vector<std::unique_ptr<vm::MemoryManager>> spaces;
    if (config.sharedAddressSpace) {
        std::vector<workloads::WorkloadSpec> all;
        for (unsigned t = 0; t < numTasks; ++t)
            all.push_back(specOf(t));
        spaces.push_back(
            makeAddressSpace(config.base, all, taskSeed(config, 0)));
    } else {
        for (unsigned t = 0; t < numTasks; ++t) {
            spaces.push_back(makeAddressSpace(config.base, {specOf(t)},
                                              taskSeed(config, t)));
        }
    }

    std::vector<Task> tasks(numTasks);
    for (unsigned t = 0; t < numTasks; ++t) {
        Task &task = tasks[t];
        task.spec = specOf(t);
        task.asid =
            config.sharedAddressSpace ? 0 : static_cast<tlb::Asid>(t);
        task.mm = config.sharedAddressSpace ? spaces[0].get()
                                            : spaces[t].get();
        task.gen = std::make_unique<workloads::WorkloadGenerator>(
            task.spec, *task.mm, taskSeed(config, t));
        task.regions = task.gen->regions();
        task.rangeTable = wantRange ? &task.mm->rangeTable() : nullptr;
    }

    // --- cores. Every core starts pointed at task 0's tables; the
    // first quantum's switchContext retargets it (free for core 0).
    // Hw coherence swaps the cost book the MMUs keep for remap
    // invalidations; the invalidations themselves are identical.
    const bool hwCoherence =
        config.coherence == McConfig::CoherenceMode::Hw;
    core::MmuConfig mmuCfg = config.base.mmu;
    mmuCfg.hwCoherence = hwCoherence;
    std::vector<std::unique_ptr<core::Mmu>> mmus;
    for (unsigned c = 0; c < cores; ++c) {
        auto mmu = std::make_unique<core::Mmu>(
            mmuCfg, tasks[0].mm->pageTable(), tasks[0].rangeTable);
        mmu->setCoreId(c);
        mmus.push_back(std::move(mmu));
    }

    // --- per-core checkers: fault attribution falls out of having one
    // checker per core (the core whose checker fires is the core that
    // observed the corruption).
    std::vector<std::unique_ptr<check::ShadowChecker>> checkers(cores);
    for (unsigned c = 0; c < cores; ++c) {
        if (config.base.checkLevel == check::CheckLevel::Off)
            continue;
        auto checker = std::make_unique<check::ShadowChecker>(
            config.base.checkLevel, tasks[0].mm->pageTable(),
            tasks[0].rangeTable);
        if (!config.sharedAddressSpace) {
            for (unsigned t = 1; t < numTasks; ++t) {
                checker->addContext(tasks[t].asid,
                                    tasks[t].mm->pageTable(),
                                    tasks[t].rangeTable);
            }
        }
        if (cores > 1)
            checker->setCoreLabel("core" + std::to_string(c) + ": ");
        mmus[c]->setChecker(checker.get());
        checkers[c] = std::move(checker);
    }

    // --- fault injector, wired to exactly one core's structures.
    std::unique_ptr<check::FaultInjector> injector;
    if (!config.base.faultSpec.empty()) {
        auto specs = check::parseFaultSpecs(config.base.faultSpec);
        if (!specs.ok())
            eat_fatal(specs.status().message());
        injector = std::make_unique<check::FaultInjector>(
            std::move(specs.value()), config.base.seed);
        core::Mmu &target = *mmus[config.faultCore];
        injector->registerPageTlb(&target.l1Tlb4K(),
                                  check::FaultTarget::L1Tlb4K);
        injector->registerPageTlb(target.l1Tlb2M(),
                                  check::FaultTarget::L1Tlb2M);
        injector->registerPageTlb(target.l1Tlb1G(),
                                  check::FaultTarget::L1Tlb1G);
        injector->registerPageTlb(&target.l2Tlb(),
                                  check::FaultTarget::L2Tlb);
        injector->registerRangeTlb(target.l1RangeTlb(),
                                   check::FaultTarget::L1Range);
        injector->registerRangeTlb(target.l2RangeTlb(),
                                   check::FaultTarget::L2Range);
    }

    // --- shared observability outputs. One telemetry stream (records
    // carry the emitting core's id) and one trace for all cores.
    std::unique_ptr<obs::TelemetrySink> telemetry;
    std::unique_ptr<obs::TraceWriter> trace;
    if (!config.base.telemetryPath.empty()) {
        auto sink = obs::TelemetrySink::open(config.base.telemetryPath);
        if (!sink.ok())
            eat_fatal(sink.status().message());
        telemetry = std::move(sink.value());
        for (auto &mmu : mmus)
            mmu->setTelemetry(telemetry.get());
        if (injector)
            mmus[config.faultCore]->setInjectStats(&injector->stats());
    }
    if (!config.base.traceOutPath.empty()) {
        trace = std::make_unique<obs::TraceWriter>();
        for (unsigned c = 0; c < cores; ++c) {
            mmus[c]->setTrace(trace.get());
            if (checkers[c])
                checkers[c]->setTrace(trace.get(), c);
        }
        if (injector)
            injector->setTrace(trace.get(), config.faultCore);
    }

    // One provenance sink shared by every core: events carry the core
    // id, and the summary's per-core totals reconcile against each
    // core's meters independently.
    std::unique_ptr<obs::ProvenanceSink> provenance;
    eat_assert(config.base.provenanceSampleEvery >= 1,
               "provenance sample rate must be >= 1");
    if (!config.base.provenancePath.empty()) {
        if (!obs::kProvenanceCompiledIn) {
            eat_fatal("this build has no provenance hooks "
                      "(EAT_PROVENANCE=OFF); cannot write '",
                      config.base.provenancePath, "'");
        }
        auto sink = obs::ProvenanceSink::open(
            config.base.provenancePath, config.base.provenanceSampleEvery);
        if (!sink.ok())
            eat_fatal(sink.status().message());
        provenance = std::move(sink.value());
    } else if (config.base.provenanceEnabled &&
               obs::kProvenanceCompiledIn) {
        provenance = std::make_unique<obs::ProvenanceSink>(
            config.base.provenanceSampleEvery);
    }
    if (provenance) {
        for (auto &mmu : mmus)
            mmu->setProvenance(provenance.get());
    }

    // --- shootdown broadcast. Every page-table rewrite invalidates the
    // affected span on every core (the initiator's invalidation is part
    // of the remap), and every checker re-snapshots the rewritten
    // space. Who pays depends on the coherence mode: under IPI the
    // initiator is charged a full broadcast; under hw coherence it pays
    // one filter probe plus a per-sharer message, and only the sharer
    // cores the filter names take an invalidation receipt.
    CoherenceFilter filter(cores);
    unsigned activeCore = 0;
    std::uint64_t shootdownEvents = 0;
    std::uint64_t shootdownInvalidations = 0;
    std::uint64_t coherenceProbes = 0;
    std::uint64_t coherenceTargetedCores = 0;
    auto broadcast = [&](tlb::Asid asid, const vm::RemapEvent &event) {
        unsigned invalidated = 0;
        for (unsigned c = 0; c < cores; ++c) {
            invalidated += mmus[c]->shootdownInvalidate(
                event.vbase, event.vlimit, asid, c == activeCore);
        }
        if (cores > 1) {
            if (hwCoherence) {
                const auto probe = filter.probe(asid);
                const std::uint32_t remote =
                    probe.sharers & ~(1u << activeCore);
                const unsigned targets = sharerCount(remote);
                mmus[activeCore]->chargeCoherenceProbe(
                    targets, invalidated, probe.version, event.vbase);
                for (unsigned c = 0; c < cores; ++c) {
                    if (remote & (1u << c))
                        mmus[c]->receiveCoherenceInvalidation();
                }
                ++coherenceProbes;
                coherenceTargetedCores += targets;
            } else {
                mmus[activeCore]->chargeShootdown(cores - 1, invalidated);
            }
        }
        for (unsigned c = 0; c < cores; ++c) {
            if (checkers[c])
                checkers[c]->rebuildContext(asid);
        }
        ++shootdownEvents;
        shootdownInvalidations += invalidated;
    };
    for (auto &space : spaces) {
        // One listener per distinct space; all tasks of a shared space
        // run as ASID 0, so the space's ASID is its first task's.
        tlb::Asid spaceAsid = 0;
        for (const auto &task : tasks) {
            if (task.mm == space.get()) {
                spaceAsid = task.asid;
                break;
            }
        }
        space->setRemapListener(
            [&broadcast, spaceAsid](const vm::RemapEvent &event) {
                broadcast(spaceAsid, event);
            });
    }

    // --- fast-forward every task (cold TLBs at the measured window).
    if (config.base.fastForwardInstructions > 0) {
        profiler.start("fast-forward");
        for (auto &task : tasks)
            task.gen->skip(config.base.fastForwardInstructions);
    }

    // --- measured window: round-robin quanta until every core has
    // retired its budget (or, replaying, until the trace runs dry).
    profiler.start("simulate");
    std::optional<workloads::TraceReader> replay;
    if (replayPath)
        replay.emplace(*replayPath);
    const InstrCount budget = config.base.simulateInstructions;
    if (!replay && budget >= kPipeMinWindow) {
        for (auto &task : tasks)
            task.pipe = std::make_unique<OpPipe>(*task.gen);
    }
    std::vector<InstrCount> coreRetired(cores, 0);
    std::vector<CoreTimeline> timelines(
        cores, CoreTimeline(config.base.timelineInterval));

    std::uint64_t round = 0;
    while (true) {
        bool anyActive = false;
        for (unsigned c = 0; c < cores; ++c) {
            if (coreRetired[c] >= budget)
                continue;
            anyActive = true;
            Task &task = tasks[(round + c) % numTasks];
            core::Mmu &mmu = *mmus[c];
            activeCore = c;
            filter.noteScheduled(task.asid, c);
            mmu.switchContext(task.asid, task.mm->pageTable(),
                              task.rangeTable, config.ctxFlush);
            if (config.remapInterval > 0 &&
                task.sinceChurn >= config.remapInterval) {
                task.sinceChurn = 0;
                churnTask(task);
            }

            const InstrCount start = coreRetired[c];
            const InstrCount end =
                std::min(start + config.quantumInstructions, budget);
            check::FaultInjector *coreInjector =
                c == config.faultCore ? injector.get() : nullptr;
            bool dry = false;
            const InstrCount retired =
                replay      ? runQuantum(ReplayedOps{*replay}, mmu,
                                         coreInjector, timelines[c], start,
                                         end, dry)
                : task.pipe ? runQuantum(PipedOps{*task.pipe}, mmu,
                                         coreInjector, timelines[c], start,
                                         end, dry)
                            : runQuantum(GeneratedOps{*task.gen}, mmu,
                                         coreInjector, timelines[c], start,
                                         end, dry);
            task.retired += retired - start;
            task.sinceChurn += retired - start;
            // A replayed trace that ran dry ends its core's window.
            coreRetired[c] = dry ? budget : retired;
        }
        if (!anyActive)
            break;
        ++round;
    }
    // The window is done: join the producers before the report.
    for (auto &task : tasks)
        task.pipe.reset();
    for (unsigned c = 0; c < cores; ++c)
        timelines[c].flush(mmus[c]->stats());

    profiler.start("report");
    McResult result;
    result.cores = cores;
    result.mixName = mixName(config.mix);
    result.sharedAddressSpace = config.sharedAddressSpace;
    result.ctxFlush = config.ctxFlush;
    result.quantumInstructions = config.quantumInstructions;
    result.coherence = config.coherence;
    result.shootdownEvents = shootdownEvents;
    result.shootdownInvalidations = shootdownInvalidations;
    result.coherenceProbes = coherenceProbes;
    result.coherenceTargetedCores = coherenceTargetedCores;

    // OS facts summed over the distinct address spaces (one space:
    // exactly the single-core numbers).
    std::uint64_t pages4K = 0;
    std::uint64_t pages2M = 0;
    std::uint64_t numRanges = 0;
    std::uint64_t coveredBytes = 0;
    std::uint64_t mappedBytes = 0;
    for (const auto &space : spaces) {
        pages4K += space->pageTable().pageCount(vm::PageSize::Size4K);
        pages2M += space->pageTable().pageCount(vm::PageSize::Size2M);
        numRanges += space->rangeTable().size();
        coveredBytes += space->rangeTable().coveredBytes();
        mappedBytes += space->mappedBytes();
    }
    const double rangeCoverage =
        mappedBytes > 0 ? static_cast<double>(coveredBytes) /
                              static_cast<double>(mappedBytes)
                        : 0.0;

    std::uint64_t telemetryRecords = 0;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceEventsDropped = 0;
    if (telemetry) {
        telemetryRecords = telemetry->recordsEmitted();
        eat_check_fatal(telemetry->close());
    }
    if (trace) {
        traceEvents = trace->eventsRecorded();
        traceEventsDropped = trace->eventsDropped();
        eat_check_fatal(trace->write(config.base.traceOutPath));
    }
    if (provenance) {
        eat_check_fatal(provenance->close());
        result.provenanceEnabled = true;
        result.provenance = provenance->summary();
    }

    for (unsigned c = 0; c < cores; ++c) {
        sim::SimResult r;
        r.workloadName = result.mixName;
        r.org = config.base.mmu.org;
        r.stats = mmus[c]->stats();
        r.energy = mmus[c]->energyReport();
        if (mmus[c]->lite()) {
            r.lite = mmus[c]->lite()->stats();
            r.liteEnabled = true;
        }
        r.checkLevel = config.base.checkLevel;
        if (checkers[c]) {
            r.check = checkers[c]->stats();
            r.firstMismatch = checkers[c]->firstMismatch();
        }
        if (injector && c == config.faultCore)
            r.inject = injector->stats();
        r.mpkiTimeline = std::move(timelines[c].samples);
        r.telemetryRecords = telemetryRecords;
        r.traceEvents = traceEvents;
        r.traceEventsDropped = traceEventsDropped;
        r.pages4K = pages4K;
        r.pages2M = pages2M;
        r.numRanges = numRanges;
        r.rangeCoverage = rangeCoverage;
        result.perCore.push_back(std::move(r));
    }

    for (unsigned t = 0; t < numTasks; ++t) {
        TaskResult tr;
        tr.workload = tasks[t].spec.name;
        tr.asid = tasks[t].asid;
        tr.instructions = tasks[t].retired;
        tr.remapEvents = tasks[t].remapEvents;
        const vm::MemoryManager &mm = *tasks[t].mm;
        tr.pages4K = mm.pageTable().pageCount(vm::PageSize::Size4K);
        tr.pages2M = mm.pageTable().pageCount(vm::PageSize::Size2M);
        tr.numRanges = mm.rangeTable().size();
        tr.rangeCoverage = mm.rangeCoverage();
        result.tasks.push_back(std::move(tr));
    }

    if (!config.base.metricsPath.empty()) {
        obs::MetricRegistry registry;
        for (unsigned c = 0; c < cores; ++c) {
            const std::string prefix =
                cores > 1 ? "core" + std::to_string(c) + "." : "";
            mmus[c]->registerMetrics(registry, prefix);
            if (checkers[c])
                checkers[c]->registerMetrics(registry, prefix);
            if (injector && c == config.faultCore)
                injector->registerMetrics(registry, prefix);
        }
        std::ofstream out(config.base.metricsPath,
                          std::ios::out | std::ios::trunc);
        if (!out) {
            eat_fatal("cannot open metrics file '",
                      config.base.metricsPath, "'");
        }
        registry.writeJson(out);
        out << '\n';
        out.flush();
        if (!out.good()) {
            eat_fatal("error writing metrics file '",
                      config.base.metricsPath, "'");
        }
    }

    result.profile = profiler.timings();
    for (auto &r : result.perCore)
        r.profile = result.profile;
    return result;
}

} // namespace

std::unique_ptr<vm::MemoryManager>
makeAddressSpace(const sim::SimConfig &base,
                 const std::vector<workloads::WorkloadSpec> &specs,
                 std::uint64_t seed)
{
    std::uint64_t physBytes = base.physBytes;
    if (physBytes == 0) {
        std::uint64_t need = 0;
        for (const auto &spec : specs) {
            const std::uint64_t footprint = spec.footprintBytes();
            need += footprint + footprint / 4;
        }
        physBytes = alignUp(need + 256_MiB, 2_MiB);
    }
    auto policy = base.mmu.osPolicy();
    if (base.eagerRangesPerRegion > 0)
        policy.eagerRangesPerRegion = base.eagerRangesPerRegion;
    return std::make_unique<vm::MemoryManager>(policy, physBytes,
                                               seed ^ 0x05f5e0ffull);
}

McResult
mcSimulate(const McConfig &config)
{
    return runEngine(config, nullptr);
}

McResult
mcReplay(const McConfig &config, const std::string &tracePath)
{
    return runEngine(config, &tracePath);
}

Result<McConfig::CoherenceMode>
coherenceModeFromName(std::string_view name)
{
    if (name == "ipi")
        return McConfig::CoherenceMode::Ipi;
    if (name == "hw")
        return McConfig::CoherenceMode::Hw;
    return Status::error("unknown coherence mode '", name,
                         "' (expected ipi or hw)");
}

std::string_view
coherenceModeName(McConfig::CoherenceMode mode)
{
    return mode == McConfig::CoherenceMode::Hw ? "hw" : "ipi";
}

InstrCount
McResult::totalInstructions() const
{
    InstrCount total = 0;
    for (const auto &r : perCore)
        total += r.stats.instructions;
    return total;
}

PicoJoules
McResult::totalEnergyPj() const
{
    PicoJoules total = 0.0;
    for (const auto &r : perCore) {
        total += r.totalEnergy() + r.stats.shootdownEnergyPj +
                 r.stats.cohEnergyPj;
    }
    return total;
}

double
McResult::energyPerKiloInstr() const
{
    const InstrCount instr = totalInstructions();
    if (instr == 0)
        return 0.0;
    return totalEnergyPj() * 1000.0 / static_cast<double>(instr);
}

double
McResult::aggregateMpki() const
{
    const InstrCount instr = totalInstructions();
    std::uint64_t misses = 0;
    for (const auto &r : perCore)
        misses += r.stats.l1Misses;
    return instr == 0 ? 0.0
                      : static_cast<double>(misses) * 1000.0 /
                            static_cast<double>(instr);
}

double
McResult::missCyclesPerKiloInstr() const
{
    const InstrCount instr = totalInstructions();
    Cycles cycles = 0;
    for (const auto &r : perCore) {
        cycles += r.stats.tlbMissCycles() + r.stats.shootdownCycles +
                  r.stats.cohCycles;
    }
    return instr == 0 ? 0.0
                      : static_cast<double>(cycles) * 1000.0 /
                            static_cast<double>(instr);
}

double
McResult::simKips() const
{
    return obs::simKips(totalInstructions(), profile.total());
}

stats::TextTable
mcPerCoreTable(const McResult &result)
{
    stats::TextTable table({"core", "instructions", "pJ/KI", "L1 MPKI",
                            "miss-cyc/KI", "ctx-switch", "sd-init",
                            "sd-recv", "sd-inval", "coh-probe",
                            "coh-recv"});
    for (unsigned c = 0; c < result.perCore.size(); ++c) {
        const auto &r = result.perCore[c];
        const auto &s = r.stats;
        const double instr = static_cast<double>(s.instructions);
        const double epki =
            instr > 0.0 ? (r.totalEnergy() + s.shootdownEnergyPj +
                           s.cohEnergyPj) *
                              1000.0 / instr
                        : 0.0;
        const double missCyc =
            instr > 0.0 ? static_cast<double>(s.tlbMissCycles() +
                                              s.shootdownCycles +
                                              s.cohCycles) *
                              1000.0 / instr
                        : 0.0;
        table.addRow({"core" + std::to_string(c),
                      std::to_string(s.instructions),
                      stats::TextTable::num(epki, 1),
                      stats::TextTable::num(s.l1Mpki(), 3),
                      stats::TextTable::num(missCyc, 2),
                      std::to_string(s.contextSwitches),
                      std::to_string(s.shootdownsInitiated),
                      std::to_string(s.shootdownsReceived),
                      std::to_string(s.shootdownInvalidations),
                      std::to_string(s.cohProbes),
                      std::to_string(s.cohInvalidationsReceived)});
    }
    std::uint64_t ctx = 0;
    std::uint64_t sdInit = 0;
    std::uint64_t sdRecv = 0;
    std::uint64_t sdInval = 0;
    std::uint64_t cohProbe = 0;
    std::uint64_t cohRecv = 0;
    for (const auto &r : result.perCore) {
        ctx += r.stats.contextSwitches;
        sdInit += r.stats.shootdownsInitiated;
        sdRecv += r.stats.shootdownsReceived;
        sdInval += r.stats.shootdownInvalidations;
        cohProbe += r.stats.cohProbes;
        cohRecv += r.stats.cohInvalidationsReceived;
    }
    table.addRow({"all", std::to_string(result.totalInstructions()),
                  stats::TextTable::num(result.energyPerKiloInstr(), 1),
                  stats::TextTable::num(result.aggregateMpki(), 3),
                  stats::TextTable::num(result.missCyclesPerKiloInstr(),
                                        2),
                  std::to_string(ctx), std::to_string(sdInit),
                  std::to_string(sdRecv), std::to_string(sdInval),
                  std::to_string(cohProbe), std::to_string(cohRecv)});
    return table;
}

} // namespace eat::mc
