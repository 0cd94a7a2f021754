/**
 * @file
 * eatbatch: fault-tolerant (workload x organization) sweep driver.
 *
 *   eatbatch --out=results.csv [-jN | --jobs=N] [--workloads=a,b,c]
 *            [--orgs=THP,RMM] [--instructions=N] [--fast-forward=N]
 *            [--seed=N] [--timeout=SECONDS] [--check=off|paddr|full]
 *            [--inject=SPEC] [--retries=N] [--checkpoint=PATH]
 *            [--resume]
 *   eatbatch --out=mix.csv --cores=4 --mix=mcf,canneal,omnetpp,astar
 *            [--shared] [--ctx-flush] [--quantum=N]
 *            [--remap-interval=N]
 *
 * Every run executes in its own process under a wall-clock watchdog,
 * so one crashing or hanging cell costs one row, not the sweep. Up to
 * N cells run concurrently (default: all hardware threads) with no
 * effect on results: rows are ordered by cell index and every column
 * except wall_seconds/sim_kips is bit-identical to a -j1 sweep. The
 * CSV is rewritten atomically after every run, a checkpoint journal
 * (default <out>.journal) records every settled cell, and --resume
 * replays it — even after a kill -9 the rerun loses at most the cells
 * that were in flight, and the merged CSV is byte-identical (modulo
 * the wall-clock columns) to an uninterrupted sweep. Transient
 * failures (fork pressure, signal death, watchdog timeouts) retry up
 * to --retries times with bounded backoff; what still fails lands in
 * <journal>.quarantine with full diagnostics, and SIGINT/SIGTERM stop
 * dispatch cleanly, reap every child, and leave resumable state.
 *
 * With --cores/--mix the grid becomes (mix x organization): every cell
 * runs the whole multiprogrammed mix through the multicore driver
 * under one organization, and after the sweep a normalized per-mix
 * table (energy and miss cycles relative to the first organization,
 * Figure-10 style) is printed from the finished rows.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "sim/batch.hh"
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
        "usage: %s --out=PATH [options]\n"
        "\n"
        "options:\n"
        "  -jN, --jobs=N        cells run concurrently (default: all\n"
        "                       hardware threads; max 4x that); results\n"
        "                       are identical at any job count\n"
        "  --workloads=A,B,...  workload names (default: the 8\n"
        "                       TLB-intensive workloads)\n"
        "  --orgs=A,B,...       organizations (default: all six)\n"
        "  --instructions=N     measured window per run\n"
        "  --fast-forward=N     skipped prefix per run\n"
        "  --seed=N             deterministic seed\n"
        "  --timeout=SECONDS    per-run watchdog (0 = none, default 0)\n"
        "  --check=LEVEL        off | paddr | full (default full)\n"
        "  --inject=SPEC        fault-injection spec per run\n"
        "  --telemetry-dir=DIR  per-cell interval telemetry (JSONL) as\n"
        "                       DIR/<workload>_<org>.jsonl\n"
        "  --retries=N          retry transient cell failures (spawn\n"
        "                       failure, signal, timeout) up to N times\n"
        "                       with backoff (0..10, default 0); what\n"
        "                       still fails is quarantined\n"
        "  --checkpoint=PATH    checkpoint journal (default\n"
        "                       <out>.journal)\n"
        "  --resume             replay the checkpoint journal; without\n"
        "                       one, the whole grid runs\n"
        "  --cores=N            multicore sweep with N cores (1..16)\n"
        "  --mix=A,B,...        multiprogrammed mix (default: the\n"
        "                       selected workloads)\n"
        "  --shared             one shared address space per mc cell\n"
        "  --ctx-flush          flush TLBs on context switch (no ASIDs)\n"
        "  --quantum=N          scheduler quantum (default 100000)\n"
        "  --remap-interval=N   OS churn every N instructions per task\n"
        "  --coherence=MODE     ipi | hw remap-invalidation cost model\n"
        "                       (multicore cells only; default ipi)\n"
        "  --vm[=MODE]          nested paging per cell: identity |\n"
        "                       paged (bare --vm means paged)\n"
        "  --host-pages=SZ      host page size: 4k | 2m | 1g\n"
        "                       (requires --vm; default 4k)\n"
        "  --l3=MODE            L3 translation tier per cell: none |\n"
        "                       cache | dram (default none; part of the\n"
        "                       sweep fingerprint, so --resume refuses\n"
        "                       rows from a different tier)\n"
        "  --l3-policy=POLICY   cache-tier insertion: walk | promote\n"
        "                       (requires --l3=cache)\n"
        "  --l3-promote-streak=N\n"
        "                       promotion threshold (requires\n"
        "                       --l3-policy=promote)\n",
        argv0);
    std::exit(2);
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::BatchOptions options;
    options.engine.jobs = 0; // auto: one child per hardware thread
    std::string workloadsArg, orgsArg;
    mc::RunFlags run(mc::kEatbatch);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        if (const char *v = value("--out=")) {
            options.outPath = v;
        } else if (const char *v2 = value("--workloads=")) {
            workloadsArg = v2;
        } else if (const char *v3 = value("--orgs=")) {
            orgsArg = v3;
        } else if (const char *v10 = value("--fail-cell=")) {
            options.failCell = v10; // undocumented testing aid
        } else if (const char *v11 = value("--telemetry-dir=")) {
            options.telemetryDir = v11;
        } else {
            // The campaign flags (--kill-after is an undocumented
            // testing aid), then the run knobs.
            auto taken = campaign::takeEngineFlag(arg, options.engine);
            if (taken.ok() && !taken.value())
                taken = run.take(arg);
            if (!taken.ok()) {
                std::fprintf(stderr, "%s\n",
                             taken.status().message().c_str());
                return 2;
            }
            if (!taken.value())
                usage(argv[0]);
        }
    }
    if (options.outPath.empty())
        usage(argv[0]);

    if (workloadsArg.empty()) {
        for (const auto &w : workloads::tlbIntensiveSuite())
            options.workloadNames.push_back(w.name);
    } else {
        options.workloadNames = splitCommas(workloadsArg);
    }
    std::string workloadList;
    for (const auto &name : options.workloadNames)
        workloadList += (workloadList.empty() ? "" : ",") + name;
    run.defaultMix(workloadList);
    if (const Status st = run.check(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return 2;
    }
    options.spec = run.spec;
    for (const auto &name : splitCommas(orgsArg)) {
        const auto org = mc::parseOrgName(name);
        if (!org.ok()) {
            std::fprintf(stderr, "%s\n", org.status().message().c_str());
            return 2;
        }
        options.orgs.push_back(org.value());
    }

    const auto result = sim::runBatch(options, std::cout);
    if (!result.ok()) {
        std::fprintf(stderr, "eatbatch: %s\n",
                     std::string(result.status().message()).c_str());
        return 1;
    }

    const auto &s = result.value();
    std::cout << "\nsweep: " << s.ok << " ok, " << s.failed
              << " failed, " << s.timedOut << " timed out, "
              << s.engine.replayed << " resumed (" << s.total()
              << " total";
    if (s.engine.quarantined > 0)
        std::cout << "; " << s.engine.quarantined << " quarantined";
    if (s.engine.retries > 0)
        std::cout << "; " << s.engine.retries << " retries";
    std::cout << ") -> " << options.outPath << "\n";

    if (s.engine.interrupted()) {
        std::fprintf(stderr,
                     "eatbatch: interrupted by signal %d; rerun with "
                     "--resume to finish the sweep\n",
                     s.engine.interruptSignal);
        return 128 + s.engine.interruptSignal;
    }

    // After a multicore sweep, print the per-mix organization table
    // (paper Figure 10 shape): absolute and normalized energy and
    // miss cycles per organization, from the rows that ran clean.
    if (options.spec.multicore()) {
        std::vector<sim::BatchRow> rows;
        for (const auto &row : s.rows) {
            if (row.status == "ok")
                rows.push_back(row);
        }
        if (!rows.empty()) {
            // Metric columns (see batchCsvHeader): 1 l1_mpki,
            // 3 miss_cycles_pki, 4 energy_pj_pki, 7 shootdowns.
            const double baseEnergy = std::stod(rows.front().metrics[4]);
            const double baseCycles = std::stod(rows.front().metrics[3]);
            std::cout << "\nmix " << rows.front().workload << " on "
                      << options.spec.cores << " cores (normalized to "
                      << rows.front().org << "):\n";
            stats::TextTable table({"org", "pJ/KI", "norm energy",
                                    "miss-cyc/KI", "norm cycles",
                                    "L1 MPKI", "shootdowns"});
            for (const auto &row : rows) {
                const double energy = std::stod(row.metrics[4]);
                const double cycles = std::stod(row.metrics[3]);
                table.addRow(
                    {row.org, stats::TextTable::num(energy, 1),
                     stats::TextTable::num(
                         baseEnergy > 0 ? energy / baseEnergy : 0.0, 3),
                     stats::TextTable::num(cycles, 2),
                     stats::TextTable::num(
                         baseCycles > 0 ? cycles / baseCycles : 0.0, 3),
                     row.metrics[1], row.metrics[7]});
            }
            table.print(std::cout);
        }
    }
    return (s.failed + s.timedOut) > 0 ? 1 : 0;
}
