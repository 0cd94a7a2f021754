/**
 * @file
 * eatsim: the command-line simulator driver.
 *
 *   eatsim --list
 *   eatsim --workload=mcf --org=RMM_Lite [--instructions=N]
 *          [--fast-forward=N] [--seed=N] [--timeline=N]
 *          [--record=trace.eat | --replay=trace.eat]
 *          [--check=off|paddr|full] [--inject=SPEC]
 *   eatsim --cores=4 --mix=mcf,canneal,omnetpp,astar --org=RMM_Lite
 *          [--shared] [--ctx-flush] [--quantum=N] [--remap-interval=N]
 *          [--fault-core=N]
 *
 * Runs one simulation and prints the full report: performance, the
 * dynamic-energy breakdown per structure, Lite activity, the
 * self-check verdict, and the OS facts of the run. With --cores/--mix
 * the multicore driver runs instead and the report shows per-core and
 * aggregate numbers plus context-switch and shootdown activity.
 *
 * Exit status: 0 on success, 1 on a runtime error, 2 on bad usage,
 * 3 when the differential checker found mismatches that no fault
 * injection explains.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "base/parse.hh"
#include "mc/mix.hh"
#include "mc/run_spec.hh"
#include "stats/table.hh"
#include "workloads/suite.hh"

namespace
{

using namespace eat;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --workload=NAME --org=ORG [options]\n"
        "       %s --list\n"
        "\n"
        "options:\n"
        "  --org=ORG            4KB | THP | TLB_Lite | RMM | TLB_PP |"
        " RMM_Lite\n"
        "  --instructions=N     measured window (default 20000000)\n"
        "  --fast-forward=N     skipped prefix (default 2000000)\n"
        "  --seed=N             deterministic seed (default 42)\n"
        "  --timeline=N         record L1 MPKI every N instructions\n"
        "  --record=PATH        record the operation stream to PATH\n"
        "  --replay=PATH        replay a recorded trace through the MMU\n"
        "  --combined-l1        single fully associative L1 (paper 4.4)\n"
        "  --check=LEVEL        off | paddr | full (default full)\n"
        "  --inject=SPEC        inject TLB faults, e.g.\n"
        "                       'tag-flip@l1-4k:1e-4,drop-inv:1e-5'\n"
        "  --metrics=PATH       dump the metric registry as JSON\n"
        "  --telemetry=PATH     stream per-interval telemetry (JSONL)\n"
        "  --trace-out=PATH     write a Chrome trace of Lite/TLB\n"
        "                       decisions (load in chrome://tracing)\n"
        "  --provenance=PATH    stream per-translation energy-provenance\n"
        "                       events (JSONL; analyze with eatreport)\n"
        "  --prov-sample=N      write 1-in-N translation paths (default\n"
        "                       1 = every path; summary stays exact)\n"
        "  --cores=N            multicore run with N cores (1..16)\n"
        "  --mix=A,B,...        multiprogrammed workload mix\n"
        "  --shared             one shared address space (threads)\n"
        "  --ctx-flush          no ASID tags: flush TLBs on context"
        " switch\n"
        "  --quantum=N          scheduler quantum (default 100000)\n"
        "  --remap-interval=N   OS churn (and shootdowns) every N\n"
        "                       instructions per task (default off)\n"
        "  --fault-core=N       core targeted by --inject (default 0)\n"
        "  --vm[=MODE]          nested paging: identity | paged\n"
        "                       (bare --vm means paged; every guest\n"
        "                       walk reference takes its own host walk)\n"
        "  --host-pages=SZ      host page size: 4k | 2m | 1g\n"
        "                       (requires --vm; default 4k)\n"
        "  --coherence=MODE     how remap invalidations reach remote\n"
        "                       cores: ipi | hw (multicore only;\n"
        "                       default ipi)\n"
        "  --l3=MODE            giant-reach L3 translation tier behind\n"
        "                       the L2 TLBs: none | cache | dram\n"
        "                       (default none; valid with every --org)\n"
        "  --l3-policy=POLICY   cache-tier insertion: walk | promote\n"
        "                       (requires --l3=cache; default walk)\n"
        "  --l3-promote-streak=N\n"
        "                       L2-miss streak that triggers promotion\n"
        "                       (requires --l3-policy=promote)\n"
        "  --list               list the available workloads\n",
        argv0, argv0);
    std::exit(2);
}

void
listWorkloads()
{
    stats::TextTable table({"workload", "suite", "footprint (MiB)",
                            "TLB intensive"});
    for (const auto &w : workloads::allWorkloads()) {
        table.addRow({w.name, w.suite,
                      std::to_string(w.footprintBytes() / 1_MiB),
                      w.tlbIntensive ? "yes" : "no"});
    }
    table.print(std::cout);
}

/** The last lines of both reports: what the run's output streams got.
 *  Telemetry and trace counts are the first core's. */
void
printStreams(const sim::SimResult &core0, bool provenanceEnabled,
             const obs::ProvSummary &p)
{
    if (core0.telemetryRecords > 0) {
        std::cout << "telemetry: " << core0.telemetryRecords
                  << " interval records\n";
    }
    if (core0.traceEvents > 0) {
        std::cout << "trace: " << core0.traceEvents << " events";
        if (core0.traceEventsDropped > 0)
            std::cout << " (" << core0.traceEventsDropped << " dropped)";
        std::cout << "\n";
    }
    if (provenanceEnabled) {
        std::cout << "provenance: " << p.eventsWritten << " of "
                  << p.events << " events written ("
                  << p.translationsSampled << " of " << p.translations
                  << " translation paths, 1-in-" << p.sampleEvery
                  << " sampling; summary totals exact)\n";
    }
}

void
printReport(const sim::SimResult &r)
{
    const auto &s = r.stats;
    std::cout << "run: " << r.workloadName << " under "
              << core::orgName(r.org) << "\n\n";

    stats::TextTable perf({"metric", "value"});
    perf.addRow({"instructions", std::to_string(s.instructions)});
    perf.addRow({"memory operations", std::to_string(s.memOps)});
    perf.addRow({"L1 TLB MPKI", stats::TextTable::num(s.l1Mpki(), 3)});
    perf.addRow({"L2 TLB MPKI (walks)",
                 stats::TextTable::num(s.l2Mpki(), 3)});
    perf.addRow({"TLB-miss cycles / kinstr",
                 stats::TextTable::num(r.missCyclesPerKiloInstr(), 2)});
    perf.addRow({"miss-cycle fraction (CPI 1)",
                 stats::TextTable::percent(s.tlbMissCycleFraction())});
    perf.addRow({"dynamic energy pJ / kinstr",
                 stats::TextTable::num(r.energyPerKiloInstr(), 1)});
    perf.addRow({"leakage power (active config, mW)",
                 stats::TextTable::num(r.energy.leakagePower, 4)});
    perf.print(std::cout);

    std::cout << "\nhit sources:\n";
    stats::TextTable hits({"source", "count", "share of ops"});
    for (unsigned i = 0; i < static_cast<unsigned>(core::HitSource::Count);
         ++i) {
        const auto src = static_cast<core::HitSource>(i);
        if (s.hits(src) == 0)
            continue;
        hits.addRow({std::string(core::hitSourceName(src)),
                     std::to_string(s.hits(src)),
                     stats::TextTable::percent(
                         static_cast<double>(s.hits(src)) /
                         static_cast<double>(std::max<std::uint64_t>(
                             s.memOps, 1)))});
    }
    hits.print(std::cout);

    std::cout << "\nenergy by structure:\n";
    stats::TextTable energy({"structure", "reads", "writes",
                             "read pJ", "write pJ"});
    for (const auto &row : r.energy.structs) {
        energy.addRow({row.name, std::to_string(row.reads),
                       std::to_string(row.writes),
                       stats::TextTable::num(row.readEnergy, 0),
                       stats::TextTable::num(row.writeEnergy, 0)});
    }
    energy.print(std::cout);

    if (r.liteEnabled) {
        std::cout << "\nLite: " << r.lite.intervals << " intervals, "
                  << r.lite.wayDisableEvents << " way disables, "
                  << r.lite.degradationActivations
                  << " degradation re-activations, "
                  << r.lite.randomActivations
                  << " random re-activations\n";
        // The 4 KB-slot L1 (split or combined), named by its report
        // row less " TLB", at every way count from its associativity
        // down to 1.
        std::string l1 = "L1";
        for (const auto &row : r.energy.structs) {
            if (row.id == obs::ProvStruct::L1Tlb4K)
                l1 = row.name.substr(0, row.name.rfind(" TLB"));
        }
        const auto &lookups = s.l1WayLookups4K;
        std::string ways, shares;
        for (std::size_t b = lookups.numBuckets(); b-- > 0;) {
            ways += std::to_string(1u << b) + (b ? "/" : "");
            shares += stats::TextTable::percent(lookups.fraction(b)) +
                      (b ? " / " : "");
        }
        std::cout << l1 << " lookups at " << ways << " ways: " << shares
                  << "\n";
    }

    if (r.checkLevel != check::CheckLevel::Off) {
        std::cout << "\nself-check (" << check::checkLevelName(r.checkLevel)
                  << "): " << r.check.translationChecks
                  << " translations checked, " << r.check.wayMaskAudits
                  << " way-mask audits, " << r.check.mismatches()
                  << " mismatches\n";
        if (!r.firstMismatch.empty())
            std::cout << "first mismatch: " << r.firstMismatch << "\n";
    }
    if (r.inject.injected() > 0) {
        std::cout << "fault injection: " << r.inject.injected()
                  << " faults (" << r.inject.tagFlips << " tag flips, "
                  << r.inject.ppnFlips << " PPN flips, "
                  << r.inject.droppedInvalidations << " dropped invs, "
                  << r.inject.spuriousEnables << " spurious enables)\n";
    }

    if (s.hostWalks > 0) {
        std::cout << "\nnested paging: " << s.hostWalks
                  << " host walks, " << s.hostWalkMemRefs
                  << " host memory references ("
                  << stats::TextTable::num(
                         static_cast<double>(s.hostWalkMemRefs) /
                             static_cast<double>(s.hostWalks),
                         2)
                  << " refs/walk)\n";
    }

    if (s.l3Probes > 0) {
        std::cout << "\nl3: " << s.l3Probes << " probes, " << s.l3Hits
                  << " hits ("
                  << stats::TextTable::percent(
                         static_cast<double>(s.l3Hits) /
                         static_cast<double>(s.l3Probes))
                  << "), " << s.l3Fills << " fills, " << s.l3Evictions
                  << " evictions";
        if (s.dramAccesses > 0 || s.dramTagHits > 0) {
            std::cout << "; dram: " << s.dramTagHits << " tag hits, "
                      << s.dramAccesses << " array accesses";
        }
        std::cout << "\n";
    }

    std::cout << "\nOS: " << r.pages4K << " x 4KB pages, " << r.pages2M
              << " x 2MB pages, " << r.numRanges << " ranges (coverage "
              << stats::TextTable::percent(r.rangeCoverage) << ")\n";

    if (r.mpkiTimeline.numSamples() > 0) {
        std::cout << "\nL1 MPKI timeline (interval "
                  << r.mpkiTimeline.intervalInstructions() << "):\n  ";
        for (const double v : r.mpkiTimeline.downsample(20))
            std::cout << stats::TextTable::num(v, 1) << " ";
        std::cout << "\n";
    }

    std::cout << "\nwall clock:";
    for (const auto &stage : r.profile.stages) {
        std::cout << " " << stage.name << " "
                  << stats::TextTable::num(stage.seconds, 2) << "s";
    }
    std::cout << " | total "
              << stats::TextTable::num(r.profile.total(), 2) << "s, "
              << stats::TextTable::num(r.simKips(), 0) << " sim-KIPS\n";
    printStreams(r, r.provenanceEnabled, r.provenance);
}

void
printMcReport(const mc::McResult &r)
{
    std::cout << "run: " << r.mixName << " on " << r.cores
              << (r.cores == 1 ? " core" : " cores") << " under "
              << core::orgName(r.perCore[0].org) << " ("
              << (r.sharedAddressSpace ? "shared address space"
                                       : "private address spaces")
              << ", " << (r.ctxFlush ? "ctx-flush" : "ASID-tagged")
              << ", quantum " << r.quantumInstructions << ")\n\n";

    mc::mcPerCoreTable(r).print(std::cout);

    std::cout << "\ntasks:\n";
    stats::TextTable tasks({"task", "workload", "asid", "instructions",
                            "remaps", "4KB pages", "2MB pages", "ranges",
                            "coverage"});
    for (std::size_t t = 0; t < r.tasks.size(); ++t) {
        const auto &task = r.tasks[t];
        tasks.addRow({std::to_string(t), task.workload,
                      std::to_string(task.asid),
                      std::to_string(task.instructions),
                      std::to_string(task.remapEvents),
                      std::to_string(task.pages4K),
                      std::to_string(task.pages2M),
                      std::to_string(task.numRanges),
                      stats::TextTable::percent(task.rangeCoverage)});
    }
    tasks.print(std::cout);

    std::uint64_t hostWalks = 0, hostWalkRefs = 0;
    for (const auto &c : r.perCore) {
        hostWalks += c.stats.hostWalks;
        hostWalkRefs += c.stats.hostWalkMemRefs;
    }
    if (hostWalks > 0) {
        std::cout << "\nnested paging: " << hostWalks << " host walks, "
                  << hostWalkRefs
                  << " host memory references (all cores)\n";
    }

    std::uint64_t l3Probes = 0, l3Hits = 0;
    for (const auto &c : r.perCore) {
        l3Probes += c.stats.l3Probes;
        l3Hits += c.stats.l3Hits;
    }
    if (l3Probes > 0) {
        std::cout << "\nl3: " << l3Probes << " probes, " << l3Hits
                  << " hits ("
                  << stats::TextTable::percent(
                         static_cast<double>(l3Hits) /
                         static_cast<double>(l3Probes))
                  << ", all cores)\n";
    }

    std::cout << "\nshootdowns: " << r.shootdownEvents << " events ("
              << mc::coherenceModeName(r.coherence) << " coherence), "
              << r.shootdownInvalidations << " entries invalidated\n";
    if (r.coherence == mc::McConfig::CoherenceMode::Hw) {
        std::cout << "hw coherence: " << r.coherenceProbes
                  << " filter probes, " << r.coherenceTargetedCores
                  << " sharer cores targeted\n";
    }

    std::uint64_t checks = 0, mismatches = 0, injected = 0;
    for (const auto &c : r.perCore) {
        checks += c.check.translationChecks;
        mismatches += c.check.mismatches();
        injected += c.inject.injected();
    }
    if (r.perCore[0].checkLevel != check::CheckLevel::Off) {
        std::cout << "self-check ("
                  << check::checkLevelName(r.perCore[0].checkLevel)
                  << "): " << checks << " translations checked, "
                  << mismatches << " mismatches\n";
        for (const auto &c : r.perCore) {
            if (!c.firstMismatch.empty()) {
                std::cout << "first mismatch: " << c.firstMismatch
                          << "\n";
                break;
            }
        }
    }
    if (injected > 0)
        std::cout << "fault injection: " << injected << " faults\n";

    std::cout << "\naggregate: "
              << stats::TextTable::num(r.energyPerKiloInstr(), 1)
              << " pJ/kinstr, L1 MPKI "
              << stats::TextTable::num(r.aggregateMpki(), 3)
              << ", miss-cycles/kinstr "
              << stats::TextTable::num(r.missCyclesPerKiloInstr(), 2)
              << "\n";

    std::cout << "wall clock:";
    for (const auto &stage : r.profile.stages) {
        std::cout << " " << stage.name << " "
                  << stats::TextTable::num(stage.seconds, 2) << "s";
    }
    std::cout << " | total "
              << stats::TextTable::num(r.profile.total(), 2) << "s, "
              << stats::TextTable::num(r.simKips(), 0)
              << " aggregate sim-KIPS\n";
    printStreams(r.perCore[0], r.provenanceEnabled, r.provenance);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    std::string orgName = "THP";
    std::string recordPath, replayPath;
    sim::SimConfig outputs; // the observability paths
    bool provSampleSet = false;
    mc::RunFlags run(mc::kEatsim);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (const char *v = value("--workload=")) {
            workloadName = v;
        } else if (const char *v2 = value("--org=")) {
            orgName = v2;
        } else if (const char *v7 = value("--record=")) {
            recordPath = v7;
        } else if (const char *v8 = value("--replay=")) {
            replayPath = v8;
        } else if (const char *v11 = value("--metrics=")) {
            outputs.metricsPath = v11;
        } else if (const char *v12 = value("--telemetry=")) {
            outputs.telemetryPath = v12;
        } else if (const char *v13 = value("--trace-out=")) {
            outputs.traceOutPath = v13;
        } else if (const char *vp = value("--provenance=")) {
            if (*vp == '\0') {
                std::fprintf(stderr,
                             "--provenance: empty output path\n");
                return 2;
            }
            outputs.provenancePath = vp;
        } else if (const char *vs = value("--prov-sample=")) {
            const auto n = parseU64(vs);
            if (!n.ok()) {
                std::fprintf(stderr, "--prov-sample: %s\n",
                             n.status().message().c_str());
                return 2;
            }
            if (n.value() == 0) {
                std::fprintf(stderr,
                             "--prov-sample: must be >= 1 (1 = trace "
                             "every translation)\n");
                return 2;
            }
            outputs.provenanceSampleEvery = n.value();
            provSampleSet = true;
        } else {
            const auto taken = run.take(arg);
            if (!taken.ok()) {
                std::fprintf(stderr, "%s\n",
                             taken.status().message().c_str());
                return 2;
            }
            if (!taken.value())
                usage(argv[0]);
        }
    }
    if (workloadName.empty() && run.spec.mixSpec.empty())
        usage(argv[0]);
    if (provSampleSet && outputs.provenancePath.empty()) {
        std::fprintf(stderr,
                     "--prov-sample requires --provenance=PATH\n");
        return 2;
    }
    if (workloadName.empty()) {
        workloadName =
            mc::parseMixSpec(run.spec.mixSpec).value().front().name;
    } else if (!workloads::findWorkload(workloadName)) {
        std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                     workloadName.c_str());
        return 2;
    }
    run.spec.workload = workloadName;
    const auto org = mc::parseOrgName(orgName);
    if (!org.ok()) {
        std::fprintf(stderr, "%s\n", org.status().message().c_str());
        return 2;
    }
    run.spec.org = org.value();
    run.defaultMix(workloadName);
    const bool multicore = run.spec.multicore();
    if (const Status st = run.check(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return 2;
    }
    if (multicore && (!recordPath.empty() || !replayPath.empty())) {
        std::fprintf(stderr, "--record/--replay are single-core only\n");
        return 2;
    }

    // Error boundary: library code reports problems by throwing (fatal)
    // or returning Status; here they become an exit code and a message.
    try {
        mc::McConfig mcc = run.spec.toMcConfig();
        mcc.base.metricsPath = outputs.metricsPath;
        mcc.base.telemetryPath = outputs.telemetryPath;
        mcc.base.traceOutPath = outputs.traceOutPath;
        mcc.base.provenancePath = outputs.provenancePath;
        mcc.base.provenanceSampleEvery = outputs.provenanceSampleEvery;
        const sim::SimConfig &cfg = mcc.base;

        std::uint64_t mismatches = 0;
        if (multicore) {
            const auto result = mc::mcSimulate(mcc);
            printMcReport(result);
            for (const auto &c : result.perCore)
                mismatches += c.check.mismatches();
        } else if (!recordPath.empty()) {
            const auto n = sim::recordTrace(cfg, recordPath);
            std::cout << "recorded " << n << " operations to "
                      << recordPath << "\n";
            return 0;
        } else {
            const auto result = replayPath.empty()
                                    ? sim::simulate(cfg)
                                    : sim::simulateFromTrace(cfg, replayPath);
            printReport(result);
            mismatches = result.check.mismatches();
        }

        // Mismatches with no injection running mean the simulator (or
        // the checker) is broken: make the run loudly non-zero.
        if (cfg.faultSpec.empty() && mismatches > 0) {
            std::fprintf(stderr,
                         "eatsim: self-check FAILED with %llu mismatches\n",
                         static_cast<unsigned long long>(mismatches));
            return 3;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "eatsim: %s\n", e.what());
        return 1;
    }
}
