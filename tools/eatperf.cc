/**
 * @file
 * eatperf: the tracked performance baseline of the simulator itself.
 *
 *   eatperf --out=BENCH_perf.json [--jobs=N] [--instructions=N]
 *           [--fast-forward=N] [--repeats=N] [--quick]
 *
 * Runs a fixed, pinned-seed mini-grid twice over — once in-process to
 * measure sim-KIPS per organization, once through the batch runner at
 * -j1 and -jN to measure sweep wall clock — and writes one JSON
 * document future PRs can regress against. Simulated results are
 * deterministic; only the wall-clock numbers move between machines,
 * which is exactly what the file exists to track.
 *
 * Every sim-KIPS measurement (the "kips" and "mc" legs) is repeated
 * --repeats times (default 3) and the *median* rate is reported:
 * single-shot KIPS on a shared CI machine swings with tenant load, and
 * the --max-regression gate exists to catch code slowdowns, not a
 * noisy neighbour. --quick drops to one repeat to keep the CI lane's
 * wall clock flat. The simulated outcome is identical across repeats
 * (same seed, same windows); only the wall clock differs, so the
 * per-row simulation facts (e.g. the L3 hit rate) are taken from the
 * first repeat.
 *
 * BENCH_perf.json schema (v5; v4 lacked the "l3" array, v3 lacked the
 * "vm" array, v2 lacked "repeats", v1 lacked the "mc" array):
 *
 *   {
 *     "schema": "eat.perf_baseline", "v": 5,
 *     "seed": ..., "instructions": ..., "fast_forward": ...,
 *     "repeats": N,
 *     "kips": [ {"org": "THP", "workload": "mcf",
 *                "sim_kips": <median>, "wall_seconds": <median>},
 *               ... ],
 *     "mc": [ {"cores": 1, "mix": "mcf,canneal",
 *              "sim_kips": <median>, "wall_seconds": <median>}, ... ],
 *     "vm": [ {"vm": "identity", "host_pages": "4k",
 *              "sim_kips": <median>, "wall_seconds": <median>,
 *              "host_walk_refs": ...}, ... ],
 *     "l3": [ {"l3": "none", "sim_kips": <median>,
 *              "wall_seconds": <median>, "l3_hit_rate": ...}, ... ],
 *     "sweep": { "workloads": "mcf,astar", "orgs": 6, "cells": 12,
 *                "jobs": N, "j1_wall_seconds": ...,
 *                "jn_wall_seconds": ..., "speedup": ... }
 *   }
 *
 * The "mc" leg runs the same pinned mix through the multicore driver
 * at 1, 2, and 4 cores; sim_kips there is the aggregate rate over all
 * cores, the scaling number the multicore scheduler is accountable
 * for. The "vm" leg runs the kips workload under nested paging —
 * identity host (must cost nothing) and paged host (every guest walk
 * reference takes its own host walk) — so two-dimensional-walk
 * slowdowns are tracked like everything else. The "l3" leg runs the
 * kips workload under TLB_Lite with the L3 translation tier off,
 * cache-resident, and in-DRAM, with each run's L3 hit rate recorded
 * beside the rate — the tier's probe path rides the L2-miss path, so
 * a slowdown here means the probe leaked onto a hot path.
 *
 * With --baseline=PATH the run additionally regresses itself against a
 * previously committed BENCH_perf.json: every per-org sim_kips row and
 * every mc aggregate row must stay above (1 - R) x its baseline value,
 * where R is --max-regression (default 0.5). CI machines are noisy and
 * share tenants, so R is deliberately generous — the gate exists to
 * catch order-of-magnitude slowdowns (an accidentally hot tracing hook,
 * a quadratic loop), not 10% drift. Offenders are listed and the exit
 * status is 1.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/parse.hh"
#include "l3/l3_config.hh"
#include "mc/mc_simulator.hh"
#include "mc/mix.hh"
#include "obs/json.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
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
        "  --jobs=N           pool width for the -jN sweep leg\n"
        "                     (default: all hardware threads)\n"
        "  --instructions=N   measured window per run (default 1e6)\n"
        "  --fast-forward=N   skipped prefix per run (default 1e5)\n"
        "  --repeats=N        timed repeats per sim-KIPS row; the\n"
        "                     median is reported (default 3)\n"
        "  --quick            CI-sized windows (2e5 measured) and one\n"
        "                     repeat\n"
        "  --baseline=PATH    regress sim-KIPS against a committed\n"
        "                     BENCH_perf.json; exit 1 on offenders\n"
        "  --max-regression=R allowed fractional sim-KIPS drop vs the\n"
        "                     baseline (default 0.5; 0.8 = fail only\n"
        "                     below 20%% of baseline)\n",
        argv0);
    std::exit(2);
}

double
seconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Median of a non-empty sample (mean of the middle pair when even). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

/**
 * Compare measured sim-KIPS rows against a committed baseline file.
 * @return the offender messages (empty = gate passes).
 */
std::vector<std::string>
checkBaseline(const std::string &path, double maxRegression,
              const std::vector<std::pair<std::string, double>> &kipsNow,
              const std::vector<std::pair<unsigned, double>> &mcNow,
              const std::vector<std::pair<std::string, double>> &vmNow,
              const std::vector<std::pair<std::string, double>> &l3Now)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "eatperf: cannot open baseline '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const auto parsed = obs::parseJson(buf.str());
    if (!parsed.ok()) {
        std::fprintf(stderr,
                     "eatperf: baseline '%s' is not valid JSON: %s\n",
                     path.c_str(),
                     std::string(parsed.status().message()).c_str());
        std::exit(1);
    }
    const obs::JsonValue &doc = parsed.value();
    const obs::JsonValue *schema = doc.find("schema");
    if (!schema || schema->string != "eat.perf_baseline") {
        std::fprintf(stderr,
                     "eatperf: baseline '%s' is not an "
                     "eat.perf_baseline document\n",
                     path.c_str());
        std::exit(1);
    }

    const double floorFraction = 1.0 - maxRegression;
    std::vector<std::string> offenders;
    auto gate = [floorFraction, &offenders](const std::string &what,
                                            double base, double now) {
        if (base <= 0.0)
            return;
        const double floorKips = base * floorFraction;
        if (now < floorKips) {
            char msg[160];
            std::snprintf(msg, sizeof msg,
                          "%s: %.0f sim-KIPS, below %.0f (baseline "
                          "%.0f x %.2f)",
                          what.c_str(), now, floorKips, base,
                          floorFraction);
            offenders.emplace_back(msg);
        }
    };

    if (const obs::JsonValue *rows = doc.find("kips");
        rows && rows->isArray()) {
        for (const auto &row : rows->array) {
            const obs::JsonValue *org = row.find("org");
            const obs::JsonValue *kips = row.find("sim_kips");
            if (!org || !kips)
                continue;
            for (const auto &[name, now] : kipsNow)
                if (name == org->string)
                    gate("org " + name, kips->number, now);
        }
    }
    if (const obs::JsonValue *rows = doc.find("mc");
        rows && rows->isArray()) {
        for (const auto &row : rows->array) {
            const obs::JsonValue *cores = row.find("cores");
            const obs::JsonValue *kips = row.find("sim_kips");
            if (!cores || !kips)
                continue;
            for (const auto &[n, now] : mcNow)
                if (n == static_cast<unsigned>(cores->number))
                    gate("mc " + std::to_string(n) + "-core",
                         kips->number, now);
        }
    }
    // Absent in pre-v4 baselines; the vm rows gate only once a
    // baseline regenerated under v4 is committed.
    if (const obs::JsonValue *rows = doc.find("vm");
        rows && rows->isArray()) {
        for (const auto &row : rows->array) {
            const obs::JsonValue *mode = row.find("vm");
            const obs::JsonValue *kips = row.find("sim_kips");
            if (!mode || !kips)
                continue;
            for (const auto &[name, now] : vmNow)
                if (name == mode->string)
                    gate("vm " + name, kips->number, now);
        }
    }
    // Absent in pre-v5 baselines; the l3 rows gate only once a
    // baseline regenerated under v5 is committed.
    if (const obs::JsonValue *rows = doc.find("l3");
        rows && rows->isArray()) {
        for (const auto &row : rows->array) {
            const obs::JsonValue *mode = row.find("l3");
            const obs::JsonValue *kips = row.find("sim_kips");
            if (!mode || !kips)
                continue;
            for (const auto &[name, now] : l3Now)
                if (name == mode->string)
                    gate("l3 " + name, kips->number, now);
        }
    }
    return offenders;
}

/** One batch-runner leg of the mini-grid; returns wall seconds. */
double
timedSweep(sim::BatchOptions options, unsigned jobs,
           const std::string &csvPath)
{
    options.jobs = jobs;
    options.outPath = csvPath;
    std::ostringstream sink; // progress is not the measurement
    const auto start = std::chrono::steady_clock::now();
    const auto result = sim::runBatch(options, sink);
    const double wall = seconds(start);
    if (!result.ok()) {
        std::fprintf(stderr, "eatperf: sweep failed: %s\n",
                     std::string(result.status().message()).c_str());
        std::exit(1);
    }
    if (result.value().ok != result.value().total()) {
        std::fprintf(stderr,
                     "eatperf: %u of %u sweep cells did not finish ok\n",
                     result.value().total() - result.value().ok,
                     result.value().total());
        std::exit(1);
    }
    std::remove(csvPath.c_str());
    return wall;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath;
    std::string baselinePath;
    double maxRegression = 0.5;
    unsigned jobs = 0; // auto
    InstrCount instructions = 1'000'000;
    InstrCount fastForward = 100'000;
    unsigned repeats = 3;
    bool repeatsGiven = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        auto count = [&arg](const char *flag,
                            const char *text) -> std::uint64_t {
            const auto r = parseU64(text);
            if (!r.ok()) {
                std::fprintf(stderr, "%s: %s\n", flag,
                             std::string(r.status().message()).c_str());
                std::exit(2);
            }
            return r.value();
        };
        if (const char *v = value("--out=")) {
            outPath = v;
        } else if (const char *v2 = value("--jobs=")) {
            const auto parsed = sim::parseJobs(v2);
            if (!parsed.ok()) {
                std::fprintf(
                    stderr, "--jobs: %s\n",
                    std::string(parsed.status().message()).c_str());
                return 2;
            }
            jobs = parsed.value();
        } else if (const char *v3 = value("--instructions=")) {
            instructions = count("--instructions", v3);
        } else if (const char *v4 = value("--fast-forward=")) {
            fastForward = count("--fast-forward", v4);
        } else if (const char *vr = value("--repeats=")) {
            const auto n = count("--repeats", vr);
            if (n < 1) {
                std::fprintf(stderr, "--repeats: must be >= 1\n");
                return 2;
            }
            repeats = static_cast<unsigned>(n);
            repeatsGiven = true;
        } else if (arg == "--quick") {
            instructions = 200'000;
            fastForward = 20'000;
            if (!repeatsGiven)
                repeats = 1;
        } else if (const char *v5 = value("--baseline=")) {
            baselinePath = v5;
        } else if (const char *v6 = value("--max-regression=")) {
            char *end = nullptr;
            maxRegression = std::strtod(v6, &end);
            if (end == v6 || *end != '\0' || maxRegression < 0.0 ||
                maxRegression >= 1.0) {
                std::fprintf(stderr,
                             "--max-regression: expected a fraction in "
                             "[0,1), got '%s'\n",
                             v6);
                return 2;
            }
        } else {
            usage(argv[0]);
        }
    }
    if (outPath.empty())
        usage(argv[0]);
    if (jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw > 0 ? hw : 1;
    }

    // The pinned mini-grid: two workloads with different locality
    // profiles x all six organizations, fixed seed 42 — small enough
    // for a CI lane, wide enough to exercise every datapath.
    const std::vector<std::string> sweepWorkloads{"mcf", "astar"};
    sim::BatchOptions batchTemplate;
    batchTemplate.workloadNames = sweepWorkloads;
    batchTemplate.spec.simInstructions = instructions;
    batchTemplate.spec.fastForward = fastForward;
    batchTemplate.spec.seed = 42;
    const sim::SimConfig base = batchTemplate.spec.toSimConfig();

    // --- leg 1: per-organization sim-KIPS, in-process ---
    const auto kipsSpec = workloads::findWorkload("mcf");
    if (!kipsSpec) {
        std::fprintf(stderr, "eatperf: workload 'mcf' missing\n");
        return 1;
    }
    std::vector<std::pair<std::string, double>> kipsNow;
    std::string kipsArray = "[";
    for (const auto org : core::allOrgs()) {
        sim::SimConfig cfg = base;
        cfg.workload = *kipsSpec;
        cfg.mmu = core::MmuConfig::make(org);
        std::vector<double> kipsSamples, wallSamples;
        for (unsigned rep = 0; rep < repeats; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            const sim::SimResult r = sim::simulate(cfg);
            const double wall = seconds(start);
            kipsSamples.push_back(r.simKips());
            wallSamples.push_back(wall);
        }
        const double kipsMed = median(kipsSamples);
        obs::JsonObject entry;
        entry.put("org", std::string(core::orgName(org)));
        entry.put("workload", kipsSpec->name);
        entry.put("sim_kips", kipsMed);
        entry.put("wall_seconds", median(wallSamples));
        if (kipsArray.size() > 1)
            kipsArray += ",";
        kipsArray += entry.str();
        kipsNow.emplace_back(std::string(core::orgName(org)), kipsMed);
        std::cout << "kips: " << core::orgName(org) << " " << kipsMed
                  << " (median of " << repeats << ")\n";
    }
    kipsArray += "]";

    // --- leg 1b: multicore scaling, aggregate sim-KIPS at 1/2/4 cores ---
    const auto mcMix = mc::parseMixSpec("mcf,canneal");
    if (!mcMix.ok()) {
        std::fprintf(stderr, "eatperf: %s\n",
                     std::string(mcMix.status().message()).c_str());
        return 1;
    }
    std::vector<std::pair<unsigned, double>> mcNow;
    std::string mcArray = "[";
    for (const unsigned cores : {1u, 2u, 4u}) {
        mc::McConfig mcc;
        mcc.base = base;
        mcc.base.workload = mcMix.value().front();
        mcc.base.mmu = core::MmuConfig::make(core::MmuOrg::TlbLite);
        mcc.cores = cores;
        mcc.mix = mcMix.value();
        std::vector<double> kipsSamples, wallSamples;
        std::string mixName;
        for (unsigned rep = 0; rep < repeats; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            const mc::McResult r = mc::mcSimulate(mcc);
            const double wall = seconds(start);
            kipsSamples.push_back(r.simKips());
            wallSamples.push_back(wall);
            if (rep == 0)
                mixName = r.mixName;
        }
        const double kipsMed = median(kipsSamples);
        obs::JsonObject entry;
        entry.put("cores", cores);
        entry.put("mix", mixName);
        entry.put("sim_kips", kipsMed);
        entry.put("wall_seconds", median(wallSamples));
        if (mcArray.size() > 1)
            mcArray += ",";
        mcArray += entry.str();
        mcNow.emplace_back(cores, kipsMed);
        std::cout << "mc: " << cores << " cores " << kipsMed
                  << " aggregate sim-KIPS (median of " << repeats
                  << ")\n";
    }
    mcArray += "]";

    // --- leg 1c: nested-paging sim-KIPS, identity and paged host ---
    std::vector<std::pair<std::string, double>> vmNow;
    std::string vmArray = "[";
    for (const bool identity : {true, false}) {
        const std::string mode = identity ? "identity" : "paged";
        sim::SimConfig cfg = base;
        cfg.workload = *kipsSpec;
        cfg.mmu = core::MmuConfig::make(core::MmuOrg::Thp);
        cfg.mmu.vmEnabled = true;
        cfg.mmu.vmIdentityHost = identity;
        std::vector<double> kipsSamples, wallSamples;
        std::uint64_t hostWalkRefs = 0;
        for (unsigned rep = 0; rep < repeats; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            const sim::SimResult r = sim::simulate(cfg);
            const double wall = seconds(start);
            kipsSamples.push_back(r.simKips());
            wallSamples.push_back(wall);
            if (rep == 0)
                hostWalkRefs = r.stats.hostWalkMemRefs;
        }
        const double kipsMed = median(kipsSamples);
        obs::JsonObject entry;
        entry.put("vm", mode);
        entry.put("host_pages", "4k");
        entry.put("sim_kips", kipsMed);
        entry.put("wall_seconds", median(wallSamples));
        entry.put("host_walk_refs", hostWalkRefs);
        if (vmArray.size() > 1)
            vmArray += ",";
        vmArray += entry.str();
        vmNow.emplace_back(mode, kipsMed);
        std::cout << "vm: " << mode << " host " << kipsMed
                  << " sim-KIPS (median of " << repeats << ", "
                  << hostWalkRefs << " host walk refs)\n";
    }
    vmArray += "]";

    // --- leg 1d: L3-tier sim-KIPS, off vs cache-resident vs in-DRAM ---
    std::vector<std::pair<std::string, double>> l3Now;
    std::string l3Array = "[";
    for (const auto l3Mode :
         {l3::L3Mode::None, l3::L3Mode::Cache, l3::L3Mode::Dram}) {
        const std::string mode = std::string(l3::l3ModeName(l3Mode));
        sim::SimConfig cfg = base;
        cfg.workload = *kipsSpec;
        // The TLB_L3$ shape: Lite on 4 KB pages, no THP — the tier
        // holds 4 KB-granule entries only, so a THP organization would
        // starve it and the leg would never time the hit path.
        cfg.mmu = core::MmuConfig::make(core::MmuOrg::TlbLite);
        cfg.mmu.org = core::MmuOrg::Base4K;
        if (l3Mode != l3::L3Mode::None)
            cfg.mmu.enableL3(l3Mode);
        std::vector<double> kipsSamples, wallSamples;
        double l3HitRate = 0.0;
        for (unsigned rep = 0; rep < repeats; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            const sim::SimResult r = sim::simulate(cfg);
            const double wall = seconds(start);
            kipsSamples.push_back(r.simKips());
            wallSamples.push_back(wall);
            if (rep == 0 && r.stats.l3Probes > 0) {
                l3HitRate = static_cast<double>(r.stats.l3Hits) /
                            static_cast<double>(r.stats.l3Probes);
            }
        }
        const double kipsMed = median(kipsSamples);
        obs::JsonObject entry;
        entry.put("l3", mode);
        entry.put("sim_kips", kipsMed);
        entry.put("wall_seconds", median(wallSamples));
        entry.put("l3_hit_rate", l3HitRate);
        if (l3Array.size() > 1)
            l3Array += ",";
        l3Array += entry.str();
        l3Now.emplace_back(mode, kipsMed);
        std::cout << "l3: " << mode << " " << kipsMed
                  << " sim-KIPS (median of " << repeats << ", hit rate "
                  << l3HitRate << ")\n";
    }
    l3Array += "]";

    // --- leg 2: sweep wall clock, serial vs pool ---
    const std::string csvPath = outPath + ".sweep.csv";
    std::cout << "sweep: " << sweepWorkloads.size() * core::allOrgs().size()
              << " cells at -j1...\n";
    const double j1Wall = timedSweep(batchTemplate, 1, csvPath);
    std::cout << "sweep: -j1 " << j1Wall << "s; now -j" << jobs
              << "...\n";
    const double jnWall = timedSweep(batchTemplate, jobs, csvPath);
    std::cout << "sweep: -j" << jobs << " " << jnWall << "s\n";

    obs::JsonObject sweep;
    {
        std::string joined;
        for (const auto &w : sweepWorkloads)
            joined += (joined.empty() ? "" : ",") + w;
        sweep.put("workloads", joined);
    }
    sweep.put("orgs", static_cast<unsigned>(core::allOrgs().size()));
    sweep.put("cells", static_cast<unsigned>(
                           sweepWorkloads.size() * core::allOrgs().size()));
    sweep.put("jobs", jobs);
    sweep.put("j1_wall_seconds", j1Wall);
    sweep.put("jn_wall_seconds", jnWall);
    sweep.put("speedup", jnWall > 0.0 ? j1Wall / jnWall : 0.0);

    obs::JsonObject doc;
    doc.put("schema", "eat.perf_baseline");
    doc.put("v", 5);
    doc.put("seed", std::uint64_t{42});
    doc.put("instructions", std::uint64_t{instructions});
    doc.put("fast_forward", std::uint64_t{fastForward});
    doc.put("repeats", repeats);
    doc.putRaw("kips", kipsArray);
    doc.putRaw("mc", mcArray);
    doc.putRaw("vm", vmArray);
    doc.putRaw("l3", l3Array);
    doc.putRaw("sweep", sweep.str());

    std::ofstream out(outPath, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "eatperf: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    out << doc.str() << "\n";
    out.flush();
    if (!out) {
        std::fprintf(stderr, "eatperf: write failure on %s\n",
                     outPath.c_str());
        return 1;
    }
    std::cout << "wrote " << outPath << " (speedup -j" << jobs << " vs -j1: "
              << (jnWall > 0.0 ? j1Wall / jnWall : 0.0) << "x)\n";

    if (!baselinePath.empty()) {
        const auto offenders = checkBaseline(baselinePath, maxRegression,
                                             kipsNow, mcNow, vmNow,
                                             l3Now);
        if (!offenders.empty()) {
            for (const auto &o : offenders)
                std::fprintf(stderr, "eatperf: regression: %s\n",
                             o.c_str());
            std::fprintf(stderr,
                         "eatperf: %zu row(s) regressed more than "
                         "%.0f%% vs %s\n",
                         offenders.size(), maxRegression * 100.0,
                         baselinePath.c_str());
            return 1;
        }
        std::cout << "baseline: all rows within " << maxRegression * 100.0
                  << "% of " << baselinePath << "\n";
    }
    return 0;
}
