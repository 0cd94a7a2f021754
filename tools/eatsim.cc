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
#include <utility>
#include <vector>

#include "base/parse.hh"
#include "l3/l3_config.hh"
#include "mc/mc_simulator.hh"
#include "mc/mix.hh"
#include "sim/simulator.hh"
#include "stats/table.hh"
#include "vm/host_table.hh"
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

/** Parse a numeric flag value strictly; bad input is a usage error. */
std::uint64_t
parseCount(const char *flag, const std::string &text)
{
    const auto r = parseU64(text);
    if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", flag,
                     r.status().message().c_str());
        std::exit(2);
    }
    return r.value();
}

core::MmuOrg
parseOrg(const std::string &name)
{
    for (const auto org : core::allOrgs()) {
        if (name == core::orgName(org))
            return org;
    }
    std::fprintf(stderr, "unknown organization '%s'\n", name.c_str());
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
        std::cout << "L1-4KB lookups at 4/2/1 ways: "
                  << stats::TextTable::percent(
                         s.l1WayLookups4K.fraction(2))
                  << " / "
                  << stats::TextTable::percent(
                         s.l1WayLookups4K.fraction(1))
                  << " / "
                  << stats::TextTable::percent(
                         s.l1WayLookups4K.fraction(0))
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
    if (r.telemetryRecords > 0) {
        std::cout << "telemetry: " << r.telemetryRecords
                  << " interval records\n";
    }
    if (r.traceEvents > 0) {
        std::cout << "trace: " << r.traceEvents << " events";
        if (r.traceEventsDropped > 0)
            std::cout << " (" << r.traceEventsDropped << " dropped)";
        std::cout << "\n";
    }
    if (r.provenanceEnabled) {
        const auto &p = r.provenance;
        std::cout << "provenance: " << p.eventsWritten << " of "
                  << p.events << " events written ("
                  << p.translationsSampled << " of " << p.translations
                  << " translation paths, 1-in-" << p.sampleEvery
                  << " sampling; summary totals exact)\n";
    }
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
    if (r.perCore[0].telemetryRecords > 0) {
        std::cout << "telemetry: " << r.perCore[0].telemetryRecords
                  << " interval records\n";
    }
    if (r.perCore[0].traceEvents > 0) {
        std::cout << "trace: " << r.perCore[0].traceEvents << " events";
        if (r.perCore[0].traceEventsDropped > 0) {
            std::cout << " (" << r.perCore[0].traceEventsDropped
                      << " dropped)";
        }
        std::cout << "\n";
    }
    if (r.provenanceEnabled) {
        const auto &p = r.provenance;
        std::cout << "provenance: " << p.eventsWritten << " of "
                  << p.events << " events written ("
                  << p.translationsSampled << " of " << p.translations
                  << " translation paths, 1-in-" << p.sampleEvery
                  << " sampling; summary totals exact)\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    std::string orgName = "THP";
    std::string recordPath, replayPath;
    sim::SimConfig cfg;
    cfg.simulateInstructions = 20'000'000;

    bool combined = false;
    bool provSampleSet = false;
    bool haveCores = false;
    unsigned coreCount = 1;
    std::vector<workloads::WorkloadSpec> mixSpecs;
    bool shared = false;
    bool ctxFlush = false;
    std::uint64_t quantum = 100'000;
    std::uint64_t remapInterval = 0;
    std::uint64_t faultCore = 0;
    bool haveVm = false;
    std::string vmModeName;
    std::string hostPagesName;
    std::string coherenceName;
    std::string l3ModeName;
    std::string l3PolicyName;
    std::uint64_t l3PromoteStreak = 0;
    bool haveL3Streak = false;
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
        } else if (const char *v3 = value("--instructions=")) {
            cfg.simulateInstructions = parseCount("--instructions", v3);
        } else if (const char *v4 = value("--fast-forward=")) {
            cfg.fastForwardInstructions = parseCount("--fast-forward", v4);
        } else if (const char *v5 = value("--seed=")) {
            cfg.seed = parseCount("--seed", v5);
        } else if (const char *v6 = value("--timeline=")) {
            cfg.timelineInterval = parseCount("--timeline", v6);
        } else if (const char *v7 = value("--record=")) {
            recordPath = v7;
        } else if (const char *v8 = value("--replay=")) {
            replayPath = v8;
        } else if (const char *v9 = value("--check=")) {
            const auto level = check::parseCheckLevel(v9);
            if (!level.ok()) {
                std::fprintf(stderr, "--check: %s\n",
                             level.status().message().c_str());
                return 2;
            }
            cfg.checkLevel = level.value();
        } else if (const char *v10 = value("--inject=")) {
            cfg.faultSpec = v10;
            const auto specs = check::parseFaultSpecs(v10);
            if (!specs.ok()) {
                std::fprintf(stderr, "--inject: %s\n",
                             specs.status().message().c_str());
                return 2;
            }
        } else if (const char *v11 = value("--metrics=")) {
            cfg.metricsPath = v11;
        } else if (const char *v12 = value("--telemetry=")) {
            cfg.telemetryPath = v12;
        } else if (const char *v13 = value("--trace-out=")) {
            cfg.traceOutPath = v13;
        } else if (const char *vp = value("--provenance=")) {
            if (*vp == '\0') {
                std::fprintf(stderr,
                             "--provenance: empty output path\n");
                return 2;
            }
            cfg.provenancePath = vp;
        } else if (const char *vs = value("--prov-sample=")) {
            cfg.provenanceSampleEvery = parseCount("--prov-sample", vs);
            if (cfg.provenanceSampleEvery == 0) {
                std::fprintf(stderr,
                             "--prov-sample: must be >= 1 (1 = trace "
                             "every translation)\n");
                return 2;
            }
            provSampleSet = true;
        } else if (const char *v14 = value("--cores=")) {
            const auto n = mc::parseCoreCount(v14);
            if (!n.ok()) {
                std::fprintf(stderr, "--cores: %s\n",
                             n.status().message().c_str());
                return 2;
            }
            coreCount = n.value();
            haveCores = true;
        } else if (const char *v15 = value("--mix=")) {
            auto mix = mc::parseMixSpec(v15);
            if (!mix.ok()) {
                std::fprintf(stderr, "--mix: %s\n",
                             mix.status().message().c_str());
                return 2;
            }
            mixSpecs = std::move(mix.value());
        } else if (const char *v16 = value("--quantum=")) {
            quantum = parseCount("--quantum", v16);
            if (quantum == 0) {
                std::fprintf(stderr,
                             "--quantum: must be positive\n");
                return 2;
            }
        } else if (const char *v17 = value("--remap-interval=")) {
            remapInterval = parseCount("--remap-interval", v17);
        } else if (const char *v18 = value("--fault-core=")) {
            faultCore = parseCount("--fault-core", v18);
        } else if (arg == "--vm") {
            haveVm = true;
            vmModeName = "paged";
        } else if (const char *vvm = value("--vm=")) {
            haveVm = true;
            vmModeName = vvm;
        } else if (const char *vhp = value("--host-pages=")) {
            hostPagesName = vhp;
        } else if (const char *vcoh = value("--coherence=")) {
            coherenceName = vcoh;
        } else if (const char *vl3 = value("--l3=")) {
            l3ModeName = vl3;
        } else if (const char *vl3p = value("--l3-policy=")) {
            l3PolicyName = vl3p;
        } else if (const char *vl3s = value("--l3-promote-streak=")) {
            l3PromoteStreak = parseCount("--l3-promote-streak", vl3s);
            haveL3Streak = true;
        } else if (arg == "--shared") {
            shared = true;
        } else if (arg == "--ctx-flush") {
            ctxFlush = true;
        } else if (arg == "--combined-l1") {
            combined = true;
        } else {
            usage(argv[0]);
        }
    }
    const bool multicore = haveCores || !mixSpecs.empty();
    if (workloadName.empty() && mixSpecs.empty())
        usage(argv[0]);
    if (provSampleSet && cfg.provenancePath.empty()) {
        std::fprintf(stderr,
                     "--prov-sample requires --provenance=PATH\n");
        return 2;
    }

    vm::HostMode hostMode = vm::HostMode::Paged;
    if (haveVm) {
        const auto mode = vm::hostModeFromName(vmModeName);
        if (!mode.ok()) {
            std::fprintf(stderr, "--vm: %s\n",
                         mode.status().message().c_str());
            return 2;
        }
        hostMode = mode.value();
    }
    vm::PageSize hostPageSize = vm::PageSize::Size4K;
    if (!hostPagesName.empty()) {
        if (!haveVm) {
            std::fprintf(stderr, "--host-pages requires --vm\n");
            return 2;
        }
        const auto size = vm::hostPageSizeFromName(hostPagesName);
        if (!size.ok()) {
            std::fprintf(stderr, "--host-pages: %s\n",
                         size.status().message().c_str());
            return 2;
        }
        hostPageSize = size.value();
    }
    // Orphaned L3 tuning flags describe nothing: reject them rather
    // than silently run a different machine than the user asked for.
    l3::L3Mode l3Mode = l3::L3Mode::None;
    if (!l3ModeName.empty()) {
        const auto mode = l3::l3ModeFromName(l3ModeName);
        if (!mode.ok()) {
            std::fprintf(stderr, "--l3: %s\n",
                         mode.status().message().c_str());
            return 2;
        }
        l3Mode = mode.value();
    }
    l3::L3InsertPolicy l3Policy = l3::L3InsertPolicy::WalkFill;
    if (!l3PolicyName.empty()) {
        if (l3Mode != l3::L3Mode::Cache) {
            std::fprintf(stderr,
                         "--l3-policy requires --l3=cache\n");
            return 2;
        }
        const auto policy = l3::l3InsertPolicyFromName(l3PolicyName);
        if (!policy.ok()) {
            std::fprintf(stderr, "--l3-policy: %s\n",
                         policy.status().message().c_str());
            return 2;
        }
        l3Policy = policy.value();
    }
    if (haveL3Streak) {
        if (l3Policy != l3::L3InsertPolicy::PtePromote) {
            std::fprintf(stderr,
                         "--l3-promote-streak requires "
                         "--l3-policy=promote\n");
            return 2;
        }
        if (l3PromoteStreak == 0) {
            std::fprintf(stderr,
                         "--l3-promote-streak: must be positive\n");
            return 2;
        }
    }

    mc::McConfig::CoherenceMode coherence =
        mc::McConfig::CoherenceMode::Ipi;
    if (!coherenceName.empty()) {
        const auto mode = mc::coherenceModeFromName(coherenceName);
        if (!mode.ok()) {
            std::fprintf(stderr, "--coherence: %s\n",
                         mode.status().message().c_str());
            return 2;
        }
        coherence = mode.value();
        if (!multicore) {
            std::fprintf(stderr,
                         "--coherence requires --cores/--mix\n");
            return 2;
        }
    }

    if (workloadName.empty()) {
        cfg.workload = mixSpecs.front();
    } else {
        const auto spec = workloads::findWorkload(workloadName);
        if (!spec) {
            std::fprintf(stderr,
                         "unknown workload '%s' (try --list)\n",
                         workloadName.c_str());
            return 2;
        }
        cfg.workload = *spec;
    }
    cfg.mmu = core::MmuConfig::make(parseOrg(orgName));
    cfg.mmu.combinedFullyAssocL1 = combined;
    if (haveVm) {
        cfg.mmu.vmEnabled = true;
        cfg.mmu.vmIdentityHost = hostMode == vm::HostMode::Identity;
        cfg.mmu.hostPageSize = hostPageSize;
    }
    if (l3Mode != l3::L3Mode::None) {
        cfg.mmu.l3Cache.policy = l3Policy;
        if (haveL3Streak) {
            cfg.mmu.l3Cache.promoteStreak =
                static_cast<unsigned>(l3PromoteStreak);
        }
        cfg.mmu.enableL3(l3Mode);
    }

    if (multicore) {
        if (!recordPath.empty() || !replayPath.empty()) {
            std::fprintf(stderr,
                         "--record/--replay are single-core only\n");
            return 2;
        }
        if (faultCore >= coreCount) {
            std::fprintf(stderr,
                         "--fault-core: core %llu beyond core count %u\n",
                         static_cast<unsigned long long>(faultCore),
                         coreCount);
            return 2;
        }
    }

    // Error boundary: library code reports problems by throwing (fatal)
    // or returning Status; here they become an exit code and a message.
    try {
        if (multicore) {
            mc::McConfig mcc;
            mcc.base = cfg;
            mcc.cores = coreCount;
            mcc.mix = mixSpecs.empty()
                          ? std::vector<workloads::WorkloadSpec>{
                                cfg.workload}
                          : std::move(mixSpecs);
            mcc.sharedAddressSpace = shared;
            mcc.ctxFlush = ctxFlush;
            mcc.quantumInstructions = quantum;
            mcc.remapInterval = remapInterval;
            mcc.faultCore = static_cast<unsigned>(faultCore);
            mcc.coherence = coherence;

            const auto result = mc::mcSimulate(mcc);
            printMcReport(result);

            std::uint64_t mismatches = 0;
            for (const auto &c : result.perCore)
                mismatches += c.check.mismatches();
            if (cfg.faultSpec.empty() && mismatches > 0) {
                std::fprintf(
                    stderr,
                    "eatsim: self-check FAILED with %llu mismatches\n",
                    static_cast<unsigned long long>(mismatches));
                return 3;
            }
            return 0;
        }

        if (!recordPath.empty()) {
            const auto n = sim::recordTrace(cfg, recordPath);
            std::cout << "recorded " << n << " operations to "
                      << recordPath << "\n";
            return 0;
        }

        const auto result = replayPath.empty()
                                ? sim::simulate(cfg)
                                : sim::simulateFromTrace(cfg, replayPath);
        printReport(result);

        // Mismatches with no injection running mean the simulator (or
        // the checker) is broken: make the run loudly non-zero.
        if (cfg.faultSpec.empty() && result.check.mismatches() > 0) {
            std::fprintf(stderr,
                         "eatsim: self-check FAILED with %llu mismatches\n",
                         static_cast<unsigned long long>(
                             result.check.mismatches()));
            return 3;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "eatsim: %s\n", e.what());
        return 1;
    }
}
