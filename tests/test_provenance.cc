/**
 * @file
 * Tests of the energy-provenance tracer and its load-bearing promise:
 * summing the traced events reproduces the aggregate energy meters
 * bit for bit — an exact ==, not an epsilon.
 *
 *  - every organization reconciles (in-memory sink, sampling off);
 *  - a 2-core multicore run with shootdown churn reconciles per core;
 *  - sampling thins the written stream but never the summary totals;
 *  - the JSONL stream round-trips: eatreport --reconcile re-sums the
 *    file and agrees, and rejects sampled streams;
 *  - eatreport --reconcile refuses a stream with a dropped event, an
 *    edited energy or an edited summary row, naming core and structure;
 *  - eatreport --chrome-out puts every exportable event of a 2-core
 *    stream on its core's track, in time order;
 *  - the summary record parses back bit for bit, and a summary with a
 *    wrong schema, an unknown structure or a dynamic_pj that is not its
 *    rows' sum is refused;
 *  - the shared log2 bucket helper is what both sides assume, and
 *    equals the halving loop that defines it;
 *  - golden bytes: a fixed 2-core audit mix writes exactly the
 *    pinned provenance, telemetry and summary bytes;
 *  - a build without the hooks (EAT_PROVENANCE=OFF) refuses streams;
 *    the tests that need one skip there.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "mc/mc_simulator.hh"
#include "mc/mix.hh"
#include "obs/json.hh"
#include "obs/provenance.hh"
#include "l3/l3_config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"
#include "scratch_dir.hh"

namespace eat
{
namespace
{

/** Why a build with the hooks compiled out (EAT_PROVENANCE=OFF) skips
 *  every test that needs a provenance stream or its totals. */
constexpr const char *kNoHooks = "this build has no provenance hooks";

sim::SimConfig
provConfig(const std::string &workload, core::MmuOrg org,
           InstrCount instructions = 400'000)
{
    sim::SimConfig cfg;
    cfg.workload = *workloads::findWorkload(workload);
    cfg.mmu = core::MmuConfig::make(org);
    cfg.fastForwardInstructions = 50'000;
    cfg.simulateInstructions = instructions;
    cfg.provenanceEnabled = true;
    return cfg;
}

/** The exact-reconciliation assertion both drivers must satisfy. */
void
expectReconciles(const obs::ProvCoreTotals &totals,
                 const sim::SimResult &r, const std::string &what)
{
    // Every meter-backed energy row must match the event accumulators
    // exactly: same counts, same doubles.
    unsigned matched = 0;
    for (const auto &row : r.energy.structs) {
        const auto idx = static_cast<unsigned>(row.id);
        if (idx >= obs::kProvMeteredStructs)
            continue;
        const auto &t = totals.structs[idx];
        EXPECT_EQ(t.reads, row.reads) << what << ": " << row.name;
        EXPECT_EQ(t.writes, row.writes) << what << ": " << row.name;
        EXPECT_EQ(t.readPj, row.readEnergy) << what << ": " << row.name;
        EXPECT_EQ(t.writePj, row.writeEnergy)
            << what << ": " << row.name;
        ++matched;
    }
    EXPECT_GT(matched, 0u) << what;

    EXPECT_EQ(totals.shootdowns, r.stats.shootdownsInitiated) << what;
    EXPECT_EQ(totals.shootdownPj, r.stats.shootdownEnergyPj) << what;
}

TEST(Provenance, EveryOrgReconcilesBitExactly)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    for (const auto org : core::allOrgs()) {
        const auto r =
            sim::simulate(provConfig("mcf", org));
        const std::string what(core::orgName(org));
        ASSERT_TRUE(r.provenanceEnabled) << what;
        ASSERT_EQ(r.provenance.cores.size(), 1u) << what;
        EXPECT_EQ(r.provenance.translations, r.stats.memOps) << what;
        EXPECT_EQ(r.provenance.translations,
                  r.provenance.translationsSampled)
            << what;
        expectReconciles(r.provenance.cores[0], r, what);
        // The canonical re-sum equals the meter total bit for bit.
        EXPECT_EQ(r.provenance.cores[0].canonicalDynamicPj(),
                  r.totalEnergy())
            << what;
        // Histograms saw every translation.
        EXPECT_EQ(r.provenance.walkDepth.total(),
                  r.provenance.translations)
            << what;
    }
}

TEST(Provenance, MulticoreWithShootdownsReconcilesPerCore)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    mc::McConfig cfg;
    cfg.base = provConfig("mcf", core::MmuOrg::RmmLite, 300'000);
    const auto mix = mc::parseMixSpec("mcf,astar");
    ASSERT_TRUE(mix.ok());
    cfg.mix = mix.value();
    cfg.base.workload = cfg.mix.front();
    cfg.cores = 2;
    cfg.remapInterval = 50'000;

    const auto r = mc::mcSimulate(cfg);
    ASSERT_TRUE(r.provenanceEnabled);
    ASSERT_EQ(r.perCore.size(), 2u);
    ASSERT_EQ(r.provenance.cores.size(), 2u);

    std::uint64_t memOps = 0;
    std::uint64_t shootdowns = 0;
    for (unsigned c = 0; c < 2; ++c) {
        expectReconciles(r.provenance.cores[c], r.perCore[c],
                         "core " + std::to_string(c));
        EXPECT_EQ(r.provenance.cores[c].canonicalDynamicPj(),
                  r.perCore[c].totalEnergy())
            << "core " << c;
        memOps += r.perCore[c].stats.memOps;
        shootdowns += r.provenance.cores[c].shootdowns;
    }
    EXPECT_EQ(r.provenance.translations, memOps);
    EXPECT_GT(shootdowns, 0u) << "churn must have broadcast";
    EXPECT_GT(r.provenance.shootdownFanout.total(), 0u);
}

TEST(Provenance, SamplingThinsTheStreamButNotTheTotals)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    const std::string path =
        test::scratchDir() + "sampled.prov.jsonl";

    auto cfg = provConfig("astar", core::MmuOrg::Thp);
    const auto full = sim::simulate(cfg);

    cfg.provenancePath = path;
    cfg.provenanceSampleEvery = 8;
    const auto sampled = sim::simulate(cfg);

    ASSERT_TRUE(sampled.provenanceEnabled);
    const auto &s = sampled.provenance;
    EXPECT_EQ(s.sampleEvery, 8u);
    EXPECT_EQ(s.translations, full.provenance.translations);
    // 1-in-8, first translation sampled: ceil(n / 8).
    EXPECT_EQ(s.translationsSampled, (s.translations + 7) / 8);
    EXPECT_LT(s.eventsWritten, s.events);
    // Accumulation is sampling-blind: totals match the unsampled run
    // (same seed, same stream) exactly.
    ASSERT_EQ(s.cores.size(), full.provenance.cores.size());
    EXPECT_EQ(s.cores[0].canonicalDynamicPj(),
              full.provenance.cores[0].canonicalDynamicPj());
    EXPECT_EQ(s.events, full.provenance.events);
    expectReconciles(s.cores[0], sampled, "sampled");
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** A short 2-core mcf,canneal mix with every optional layer on:
 *  nested paging over a paged host, hw coherence, the cache-resident
 *  L3 tier, OS churn, and Lite intervals short enough to resize and
 *  write telemetry several times. */
mc::McConfig
auditMixConfig()
{
    mc::McConfig cfg;
    cfg.base = provConfig("mcf", core::MmuOrg::TlbLite, 60'000);
    cfg.base.fastForwardInstructions = 10'000;
    cfg.base.mmu.lite.intervalInstructions = 10'000;
    cfg.base.mmu.vmEnabled = true;
    cfg.base.mmu.enableL3(l3::L3Mode::Cache);
    const auto mix = mc::parseMixSpec("mcf,canneal");
    EXPECT_TRUE(mix.ok());
    cfg.mix = mix.value();
    cfg.cores = 2;
    cfg.quantumInstructions = 20'000;
    cfg.remapInterval = 20'000;
    cfg.coherence = mc::McConfig::CoherenceMode::Hw;
    return cfg;
}

/** @p json with the first occurrence of @p from replaced by @p to. */
std::string
replaced(std::string json, const std::string &from, const std::string &to)
{
    const std::size_t at = json.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        json.replace(at, from.size(), to);
    return json;
}

void
expectSameHistogram(const stats::Histogram &a, const stats::Histogram &b,
                    const char *what)
{
    ASSERT_EQ(a.numBuckets(), b.numBuckets()) << what;
    EXPECT_EQ(a.total(), b.total()) << what;
    for (std::size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i)) << what << " " << i;
}

TEST(Provenance, SummaryParsesBackBitForBit)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    const auto r = mc::mcSimulate(auditMixConfig());
    ASSERT_TRUE(r.provenanceEnabled);
    const obs::ProvSummary &s = r.provenance;
    ASSERT_EQ(s.cores.size(), 2u);
    EXPECT_GT(s.cores[0].cohProbes + s.cores[1].cohProbes, 0u);

    const std::string json = obs::provSummaryToJson(s);
    const auto parsed = obs::parseJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const auto back = obs::provSummaryFromJson(parsed.value());
    ASSERT_TRUE(back.ok()) << back.status().message();
    const obs::ProvSummary &b = back.value();

    EXPECT_EQ(b.sampleEvery, s.sampleEvery);
    EXPECT_EQ(b.translations, s.translations);
    EXPECT_EQ(b.translationsSampled, s.translationsSampled);
    EXPECT_EQ(b.events, s.events);
    EXPECT_EQ(b.eventsWritten, s.eventsWritten);
    ASSERT_EQ(b.cores.size(), s.cores.size());
    for (std::size_t c = 0; c < s.cores.size(); ++c) {
        const obs::ProvCoreTotals &x = b.cores[c];
        const obs::ProvCoreTotals &y = s.cores[c];
        for (unsigned i = 0; i < obs::kProvMeteredStructs; ++i) {
            const auto what = "core " + std::to_string(c) + " " +
                              std::string(obs::provStructName(
                                  static_cast<obs::ProvStruct>(i)));
            EXPECT_EQ(x.structs[i].reads, y.structs[i].reads) << what;
            EXPECT_EQ(x.structs[i].writes, y.structs[i].writes) << what;
            EXPECT_EQ(x.structs[i].evicts, y.structs[i].evicts) << what;
            EXPECT_EQ(x.structs[i].readPj, y.structs[i].readPj) << what;
            EXPECT_EQ(x.structs[i].writePj, y.structs[i].writePj) << what;
        }
        EXPECT_EQ(x.shootdowns, y.shootdowns) << "core " << c;
        EXPECT_EQ(x.shootdownPj, y.shootdownPj) << "core " << c;
        EXPECT_EQ(x.cohProbes, y.cohProbes) << "core " << c;
        EXPECT_EQ(x.cohPj, y.cohPj) << "core " << c;
    }
    expectSameHistogram(b.walkDepth, s.walkDepth, "walk_depth");
    expectSameHistogram(b.translationPj, s.translationPj, "translation_pj");
    expectSameHistogram(b.reuseDistance, s.reuseDistance, "reuse");
    expectSameHistogram(b.shootdownFanout, s.shootdownFanout, "fanout");

    // Refused: a wrong schema, a zero sample rate, an unknown
    // structure, and a dynamic_pj that is not its rows' sum.
    const std::string dynamicPj =
        "\"dynamic_pj\":" +
        obs::jsonNumberExact(s.cores[0].canonicalDynamicPj());
    for (const auto &[bad, why] :
         {std::pair{replaced(json, "eat.prov.summary", "eat.prov.event"),
                    "schema"},
          std::pair{replaced(json, "\"sample_every\":1,",
                             "\"sample_every\":0,"),
                    "'sample_every' is 0"},
          std::pair{replaced(json, "\"l1_tlb_4k\"", "\"l1_tlb_8k\""),
                    "unknown structure 'l1_tlb_8k'"},
          std::pair{replaced(json, dynamicPj, "\"dynamic_pj\":1"),
                    "is not the sum of its rows"}}) {
        const auto refused = obs::provSummaryFromJson(
            obs::parseJson(bad).value());
        ASSERT_FALSE(refused.ok()) << why;
        EXPECT_NE(refused.status().message().find(why), std::string::npos)
            << refused.status().message();
    }
}

/** What one eatreport run exited with and printed. */
struct EatreportRun
{
    int status = -1;
    std::string output;
};

/** Run eatreport with @p args, stdout and stderr together. */
EatreportRun
runEatreport(const std::string &args)
{
    EatreportRun run;
    const std::string cmd =
        std::string(EAT_EATREPORT_PATH) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return run;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        run.output.append(buffer, n);
    run.status = pclose(pipe);
    return run;
}

TEST(Provenance, EatreportReconcilesTheStreamEndToEnd)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    const std::string prov =
        test::scratchDir() + "e2e.prov.jsonl";
    auto cfg = provConfig("mcf", core::MmuOrg::RmmLite, 300'000);
    cfg.provenancePath = prov;
    const auto r = sim::simulate(cfg);
    ASSERT_TRUE(r.provenanceEnabled);

    const EatreportRun run = runEatreport("--prov=" + prov + " --reconcile");
    ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
    EXPECT_EQ(WEXITSTATUS(run.status), 0) << run.output;
    EXPECT_NE(run.output.find("bit for bit"), std::string::npos)
        << run.output;
}

/** Copy @p from to @p to with @p edit applied to every line; @p edit
 *  returns false to drop the line. */
template <typename Edit>
void
copyEdited(const std::string &from, const std::string &to, Edit edit)
{
    std::ifstream in(from);
    std::ofstream out(to, std::ios::trunc);
    for (std::string line; std::getline(in, line);) {
        if (edit(line))
            out << line << '\n';
    }
}

/** @p line's core and structure, as "core C" and the "s" token. */
std::pair<std::string, std::string>
coreAndStruct(const std::string &line)
{
    const auto o = obs::parseJson(line);
    if (!o.ok())
        return {};
    return {"core " + std::to_string(static_cast<unsigned>(
                          o.value().find("core")->number)) + " ",
            o.value().find("s")->string};
}

TEST(Provenance, EatreportRefusesATamperedStream)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    const std::string dir = test::scratchDir();
    mc::McConfig cfg;
    cfg.base = provConfig("mcf", core::MmuOrg::TlbLite, 100'000);
    cfg.base.fastForwardInstructions = 10'000;
    cfg.base.provenancePath = dir + "intact.prov.jsonl";
    const auto mix = mc::parseMixSpec("mcf,canneal");
    ASSERT_TRUE(mix.ok());
    cfg.mix = mix.value();
    cfg.base.workload = cfg.mix.front();
    cfg.cores = 2;
    cfg.quantumInstructions = 20'000;
    cfg.remapInterval = 25'000;
    const auto r = mc::mcSimulate(cfg);
    ASSERT_TRUE(r.provenanceEnabled);
    ASSERT_EQ(r.provenance.cores.size(), 2u);

    const EatreportRun intact =
        runEatreport("--prov=" + cfg.base.provenancePath + " --reconcile");
    ASSERT_TRUE(WIFEXITED(intact.status)) << intact.output;
    ASSERT_EQ(WEXITSTATUS(intact.status), 0) << intact.output;

    /** eatreport must refuse @p path and name @p core and @p structure. */
    auto expectRefused = [](const std::string &path, const std::string &what,
                            const std::string &core,
                            const std::string &structure) {
        ASSERT_FALSE(core.empty() || structure.empty()) << what;
        const EatreportRun run = runEatreport("--prov=" + path + " --reconcile");
        ASSERT_TRUE(WIFEXITED(run.status)) << what << "\n" << run.output;
        EXPECT_EQ(WEXITSTATUS(run.status), 1) << what << "\n" << run.output;
        EXPECT_NE(run.output.find(core), std::string::npos)
            << what << ": no '" << core << "' in\n" << run.output;
        EXPECT_NE(run.output.find(structure), std::string::npos)
            << what << ": no '" << structure << "' in\n" << run.output;
    };

    // The 1000th probe line dropped.
    std::string dropped;
    unsigned probes = 0;
    copyEdited(cfg.base.provenancePath, dir + "dropped.prov.jsonl",
               [&](const std::string &line) {
                   if (line.find("\"k\":\"probe\"") == std::string::npos ||
                       ++probes != 1000)
                       return true;
                   dropped = line;
                   return false;
               });
    const auto [droppedCore, droppedStruct] = coreAndStruct(dropped);
    expectRefused(dir + "dropped.prov.jsonl", "dropped probe", droppedCore,
                  droppedStruct);

    // The first fill line's energy raised by 0.1 pJ: far more than the
    // last bit of the sum, which would round a one-ulp edit away.
    std::string raised;
    copyEdited(cfg.base.provenancePath, dir + "raised.prov.jsonl",
               [&](std::string &line) {
                   if (!raised.empty() ||
                       line.find("\"k\":\"fill\"") == std::string::npos)
                       return true;
                   raised = line;
                   const std::size_t at = line.find("\"pj\":") + 5;
                   const double pj = std::stod(line.substr(at));
                   line = line.substr(0, at) +
                          obs::jsonNumberExact(pj + 0.1) + "}";
                   return true;
               });
    const auto [raisedCore, raisedStruct] = coreAndStruct(raised);
    expectRefused(dir + "raised.prov.jsonl", "raised fill", raisedCore,
                  raisedStruct);

    // A summary whose core-1 l1_tlb_2m totals read zero. Its dynamic_pj
    // is re-summed from the rows, so only the row disagrees.
    obs::ProvSummary zeroed = r.provenance;
    auto &row = zeroed.cores[1].structs[static_cast<std::size_t>(
        obs::ProvStruct::L1Tlb2M)];
    ASSERT_GT(row.reads, 0u) << "core 1 must probe its 2 MB TLB";
    row = obs::ProvStructTotals{};
    copyEdited(cfg.base.provenancePath, dir + "zeroed.prov.jsonl",
               [&](std::string &line) {
                   if (line.find(obs::kProvSummarySchema) !=
                       std::string::npos)
                       line = obs::provSummaryToJson(zeroed);
                   return true;
               });
    expectRefused(dir + "zeroed.prov.jsonl", "zeroed summary row",
                  "core 1 ", "l1_tlb_2m");
}

/** The Chrome export holds every translation, resize, interval and
 *  shootdown/coherence-probe line of the stream exactly once, on its
 *  core's process (pid core+1) and its family's named track, in
 *  nondecreasing time, and eatreport prints the count the file holds. */
TEST(Provenance, EatreportChromeExportPutsEveryEventOnItsTrack)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    const std::string dir = test::scratchDir();
    auto cfg = auditMixConfig();
    cfg.base.provenancePath = dir + "audit.prov.jsonl";
    // Interval markers are written for the telemetry rows they match.
    cfg.base.telemetryPath = dir + "audit.telemetry.jsonl";
    ASSERT_TRUE(mc::mcSimulate(cfg).provenanceEnabled);

    using CoreTrack = std::pair<unsigned, std::string>;
    const std::map<std::string, std::string> trackOfKind = {
        {"translation", "translations"}, {"resize", "lite resizes"},
        {"interval", "intervals"},       {"shootdown", "shootdowns"},
        {"coh_probe", "shootdowns"}};
    std::map<CoreTrack, std::uint64_t> streamed;
    std::ifstream in(cfg.base.provenancePath);
    for (std::string line; std::getline(in, line);) {
        const auto o = obs::parseJson(line);
        ASSERT_TRUE(o.ok()) << line;
        const obs::JsonValue *kind = o.value().find("k");
        if (!kind)
            continue; // the summary record
        const auto track = trackOfKind.find(kind->string);
        if (track != trackOfKind.end()) {
            const auto core = static_cast<unsigned>(
                o.value().find("core")->number);
            ++streamed[{core, track->second}];
        }
    }
    for (const auto &[kind, track] : trackOfKind) {
        std::uint64_t lines = 0;
        for (const auto &[at, n] : streamed)
            lines += at.second == track ? n : 0;
        EXPECT_GT(lines, 0u) << track << ": the audit mix must fill it";
    }

    const std::string trace = dir + "audit.trace.json";
    const EatreportRun run = runEatreport(
        "--prov=" + cfg.base.provenancePath + " --chrome-out=" + trace);
    ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
    ASSERT_EQ(WEXITSTATUS(run.status), 0) << run.output;

    const auto parsed = obs::parseJson(readFile(trace));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const obs::JsonValue *events = parsed.value().find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    static const obs::JsonValue kAbsent;
    auto field = [](const obs::JsonValue &e,
                    std::string_view key) -> const obs::JsonValue & {
        const obs::JsonValue *v = e.find(key);
        return v ? *v : kAbsent;
    };
    auto pidTid = [&field](const obs::JsonValue &e) {
        return std::pair{static_cast<unsigned>(field(e, "pid").number),
                         static_cast<unsigned>(field(e, "tid").number)};
    };

    // Tracks are named by their thread_name metadata rows.
    std::map<std::pair<unsigned, unsigned>, std::string> trackName;
    for (const auto &e : events->array) {
        if (field(e, "name").string == "thread_name")
            trackName[pidTid(e)] = field(field(e, "args"), "name").string;
    }
    std::map<CoreTrack, std::uint64_t> exported;
    std::uint64_t payload = 0;
    double lastTs = 0.0;
    for (const auto &e : events->array) {
        if (field(e, "ph").string == "M")
            continue;
        ++payload;
        const double ts = field(e, "ts").number;
        EXPECT_GE(ts, lastTs) << "event " << payload;
        lastTs = ts;
        const auto [pid, tid] = pidTid(e);
        const auto name = trackName.find({pid, tid});
        ASSERT_NE(name, trackName.end())
            << "event " << payload << " is on an unnamed track";
        ASSERT_GE(pid, 1u) << "event " << payload;
        ++exported[{pid - 1, name->second}];
    }
    EXPECT_EQ(exported, streamed);

    const std::string said = "chrome trace: ";
    const std::size_t at = run.output.find(said);
    ASSERT_NE(at, std::string::npos) << run.output;
    EXPECT_EQ(std::stoull(run.output.substr(at + said.size())), payload)
        << run.output;
}

/** The bytes every writer produces are part of the contract: a change
 *  to how lines are built must leave each stream, and the summary
 *  record, byte-identical. */
TEST(Provenance, AuditMixStreamsMatchTheirGoldenBytes)
{
    if (!obs::kProvenanceCompiledIn)
        GTEST_SKIP() << kNoHooks;
    const std::string dir = test::scratchDir();
    struct Stream
    {
        std::uint64_t sampleEvery;
        std::uint64_t provHash;
    };
    for (const Stream &s : {Stream{1, 0x397e32a03bbd87c3ull},
                            Stream{64, 0xa2fe0944c0f5c479ull}}) {
        const std::string what = "sample " + std::to_string(s.sampleEvery);
        auto cfg = auditMixConfig();
        cfg.base.provenancePath = dir + "audit.prov.jsonl";
        cfg.base.provenanceSampleEvery = s.sampleEvery;
        cfg.base.telemetryPath = dir + "audit.telemetry.jsonl";
        const auto r = mc::mcSimulate(cfg);
        ASSERT_TRUE(r.provenanceEnabled) << what;
        EXPECT_GT(r.coherenceProbes, 0u) << what;

        const std::string prov = readFile(cfg.base.provenancePath);
        const std::string telemetry = readFile(cfg.base.telemetryPath);
        ASSERT_FALSE(prov.empty()) << what;
        ASSERT_FALSE(telemetry.empty()) << what;
        // Control events are written whatever the sample rate.
        EXPECT_NE(prov.find("\"k\":\"resize\""), std::string::npos);
        EXPECT_NE(prov.find("\"k\":\"coh_probe\""), std::string::npos);
        EXPECT_EQ(fnv64(prov), s.provHash)
            << what << std::hex << ": 0x" << fnv64(prov);
        // Sampling thins the provenance stream only.
        EXPECT_EQ(fnv64(telemetry), 0xd35bd5ea1c7138dbull)
            << what << std::hex << ": 0x" << fnv64(telemetry);
    }

    const auto r = mc::mcSimulate(auditMixConfig());
    ASSERT_TRUE(r.provenanceEnabled);
    const std::string summary = provSummaryToJson(r.provenance);
    EXPECT_EQ(fnv64(summary), 0xf9a2edf8adf0e562ull)
        << std::hex << "0x" << fnv64(summary);
}

/** The bucket's definition: halve until below 1, at most 63 times. */
std::size_t
halvingBucket(double v)
{
    std::size_t bucket = 0;
    while (v >= 1.0 && bucket < 63) {
        v /= 2.0;
        ++bucket;
    }
    return bucket;
}

TEST(Provenance, ABuildWithoutHooksRefusesStreams)
{
    // EAT_PROVENANCE=OFF compiles every hook out: such a build must
    // refuse a stream loudly rather than write an empty one, and must
    // leave in-memory accumulation off. The default build takes both.
    auto cfg = provConfig("astar", core::MmuOrg::Thp, 50'000);
    EXPECT_EQ(sim::simulate(cfg).provenanceEnabled,
              obs::kProvenanceCompiledIn);

    cfg.provenancePath = test::scratchDir() + "refused.prov.jsonl";
    if (obs::kProvenanceCompiledIn) {
        EXPECT_TRUE(sim::simulate(cfg).provenanceEnabled);
        return;
    }
    try {
        sim::simulate(cfg);
        ADD_FAILURE() << "a build without hooks wrote a provenance stream";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(kNoHooks), std::string::npos)
            << e.what();
    }
}

TEST(Provenance, Log2BucketsMatchTheHistogramContract)
{
    EXPECT_EQ(obs::provLog2Bucket(0.0), 0u);
    EXPECT_EQ(obs::provLog2Bucket(1.0), 1u);
    EXPECT_EQ(obs::provLog2Bucket(2.0), 2u);
    EXPECT_EQ(obs::provLog2Bucket(3.0), 2u);
    EXPECT_EQ(obs::provLog2Bucket(4.0), 3u);
    EXPECT_EQ(obs::provLog2Bucket(1023.0), 10u);
    EXPECT_EQ(obs::provLog2Bucket(1024.0), 11u);

    // Any input lands where the halving loop puts it.
    std::size_t mismatches = 0;
    double first = 0.0;
    const auto expectSame = [&](double v) {
        if (obs::provLog2Bucket(v) != halvingBucket(v) && mismatches++ == 0)
            first = v;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kMax = std::numeric_limits<double>::max();
    for (const double v : {-0.0, -1.0, -kMax, -kInf, kInf, std::nan(""),
                           -std::nan(""), 0.5, 0.999})
        expectSame(v);
    for (int e = -1074; e <= 1023; ++e) {
        const double p = std::ldexp(1.0, e);
        expectSame(p);
        expectSame(std::nextafter(p, 0.0));
        expectSame(std::nextafter(p, kInf));
    }
    std::mt19937_64 rng(64);
    for (int i = 0; i < 200'000; ++i)
        expectSame(std::bit_cast<double>(rng()));
    EXPECT_EQ(mismatches, 0u) << "first at " << std::hexfloat << first;
}

} // namespace
} // namespace eat
