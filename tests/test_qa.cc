/**
 * @file
 * The QA subsystem's own tests: scenario serialization, generator
 * validity and determinism, shrinker behavior, oracle self-test, and
 * replay of seed files: the checked-in corpus, and a directory whose
 * hanging seed times out while the seeds after it still get verdicts.
 *
 * EAT_CORPUS_DIR (a compile definition) points at tests/corpus, the
 * seed files CI replays; keeping the replay inside ctest means a plain
 * `ctest` run exercises the full generate/judge/shrink machinery with
 * no extra wiring.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mc/mc_simulator.hh"
#include "obs/json.hh"
#include "qa/campaign.hh"
#include "qa/generator.hh"
#include "qa/oracles.hh"
#include "qa/scenario.hh"
#include "qa/shrinker.hh"
#include "scratch_dir.hh"

namespace eat
{
namespace
{

TEST(QaScenario, JsonRoundTripPreservesEveryField)
{
    qa::Scenario s;
    s.id = 17;
    s.workload = "omnetpp";
    s.org = core::MmuOrg::RmmLite;
    s.simInstructions = 123'456;
    s.fastForward = 7'890;
    s.seed = 0xdeadbeefcafeull;
    s.timelineInterval = 5'000;
    s.eagerRanges = 3;
    s.combinedL1 = false;
    s.liteInterval = 20'000;
    s.liteEpsilon = 0.125;
    s.liteFullActProb = 0.03125;
    s.faultSpec = "ppn-flip@l1-4k:0.01";

    const auto parsed = qa::scenarioFromJson(s.toJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().toJson(), s.toJson());
    EXPECT_EQ(parsed.value().describe(), s.describe());
}

TEST(QaScenario, SaveAndLoadRoundTrip)
{
    const std::string path =
        test::scratchDir() + "qa_scenario_roundtrip.json";
    qa::Scenario s;
    s.id = 3;
    s.workload = "canneal";
    s.org = core::MmuOrg::TlbPP;
    ASSERT_TRUE(qa::saveScenario(s, path).ok());
    const auto loaded = qa::loadScenario(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().toJson(), s.toJson());
}

TEST(QaScenario, RejectsMalformedSeedFiles)
{
    // Each entry: a broken document and a fragment of the expected
    // diagnostic.
    const std::pair<const char *, const char *> cases[] = {
        {"not json at all", "JSON"},
        {"{\"schema\": \"other\", \"v\": 1}", "schema"},
        {"{\"schema\": \"eat.qa.scenario\", \"v\": 99}", "version"},
    };
    for (const auto &[text, fragment] : cases) {
        const auto parsed = qa::scenarioFromJson(text);
        ASSERT_FALSE(parsed.ok()) << text;
        EXPECT_NE(parsed.status().message().find(fragment),
                  std::string::npos)
            << "diagnostic for '" << text
            << "' was: " << parsed.status().message();
    }

    qa::Scenario s;
    std::string bad = s.toJson();
    const auto pos = bad.find("\"mcf\"");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 5, "\"nonexistent-workload\"");
    const auto parsed = qa::scenarioFromJson(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("workload"),
              std::string::npos);
}

TEST(QaScenario, GeneratedScenariosSurviveSaveAndLoad)
{
    // Every field must come back exactly — 64-bit seeds beyond 2^53 and
    // the Lite doubles included — or an archived failure replays a
    // different run than the one that failed.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto s = qa::generateScenario(1, i);
        const auto loaded = qa::scenarioFromJson(s.toJson());
        ASSERT_TRUE(loaded.ok()) << s.describe() << ": "
                                 << loaded.status().message();
        EXPECT_TRUE(loaded.value() == s) << s.toJson();
    }
    const auto corpus = qa::loadScenario(std::string(EAT_CORPUS_DIR) +
                                         "/seed-fault-unread-flips.json");
    ASSERT_TRUE(corpus.ok()) << corpus.status().message();
    EXPECT_EQ(corpus.value().seed, 2710387755878906669ull);
}

TEST(QaScenario, RejectsMulticoreKeysOnASingleCoreScenario)
{
    // One core and no mix: these knobs would change nothing, so a seed
    // file that sets them is malformed, not silently replayed.
    for (const char *member :
         {"\"coherence\":\"hw\"", "\"remap_interval\":1000",
          "\"quantum\":5000", "\"shared_space\":true",
          "\"fault_core\":0", "\"ctx_flush\":false"}) {
        std::string text = qa::Scenario{}.toJson();
        text.insert(text.size() - 1, std::string(",") + member);
        const auto parsed = qa::scenarioFromJson(text);
        ASSERT_FALSE(parsed.ok()) << member;
        EXPECT_NE(parsed.status().message().find("requires --cores/--mix"),
                  std::string::npos)
            << parsed.status().message();
    }
}

TEST(QaScenario, RejectsInvalidFaultSpec)
{
    qa::Scenario s;
    s.faultSpec = "frobnicate@l1-4k:0.5";
    const auto parsed = qa::scenarioFromJson(s.toJson());
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("fault_spec"),
              std::string::npos);
}

TEST(QaGenerator, IsDeterministicPerSeedAndIndex)
{
    for (std::uint64_t i = 0; i < 50; ++i) {
        EXPECT_EQ(qa::generateScenario(9, i).toJson(),
                  qa::generateScenario(9, i).toJson());
    }
    // Different indices (and different campaign seeds) must actually
    // vary: identical scenarios would mean the mixing is broken.
    std::set<std::string> distinct;
    for (std::uint64_t i = 0; i < 50; ++i)
        distinct.insert(qa::generateScenario(9, i).toJson());
    EXPECT_GT(distinct.size(), 45u);
    EXPECT_NE(qa::generateScenario(9, 0).toJson(),
              qa::generateScenario(10, 0).toJson());
}

TEST(QaGenerator, CoversAllOrganizationsAndValidates)
{
    std::set<core::MmuOrg> orgs;
    bool sawFaults = false, sawLiteOverride = false;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const auto s = qa::generateScenario(123, i);
        orgs.insert(s.org);
        sawFaults = sawFaults || !s.faultSpec.empty();
        sawLiteOverride = sawLiteOverride || s.liteInterval > 0;
        // Every generated scenario must describe a machine the
        // simulator will accept and a loadable seed file.
        const auto cfg = s.toSimConfig();
        EXPECT_TRUE(cfg.mmu.validate().ok()) << s.describe();
        EXPECT_TRUE(qa::scenarioFromJson(s.toJson()).ok()) << s.describe();
        EXPECT_GE(s.simInstructions, 30'000u);
        EXPECT_LE(s.simInstructions, 300'000u);
    }
    EXPECT_EQ(orgs.size(), core::allOrgs().size())
        << "200 scenarios must cover all organizations";
    EXPECT_TRUE(sawFaults);
    EXPECT_TRUE(sawLiteOverride);
}

TEST(QaShrinker, ReachesAFixpointAndKeepsTheFailure)
{
    qa::Scenario s;
    s.simInstructions = 160'000;
    s.fastForward = 30'000;
    s.timelineInterval = 10'000;
    s.eagerRanges = 4;
    s.combinedL1 = true;
    s.faultSpec = "tag-flip@any:0.001,ppn-flip@l2:0.01,drop-inv:0.001";

    // Synthetic failure: anything with >= 20k instructions and a
    // ppn-flip clause "fails". The shrinker must strip everything else.
    auto fails = [](const qa::Scenario &c) {
        return c.simInstructions >= 20'000 &&
               c.faultSpec.find("ppn-flip") != std::string::npos;
    };
    ASSERT_TRUE(fails(s));
    const auto shrunk = qa::shrinkScenario(s, fails);
    EXPECT_TRUE(fails(shrunk.scenario));
    EXPECT_EQ(shrunk.scenario.fastForward, 0u);
    EXPECT_EQ(shrunk.scenario.timelineInterval, 0u);
    EXPECT_EQ(shrunk.scenario.eagerRanges, 0u);
    EXPECT_FALSE(shrunk.scenario.combinedL1);
    EXPECT_EQ(shrunk.scenario.faultSpec, "ppn-flip@l2:0.01");
    // 160k halves to 20k (>= the 20k the predicate needs); the next
    // halving would pass, so it must be rejected.
    EXPECT_EQ(shrunk.scenario.simInstructions, 20'000u);
    EXPECT_GT(shrunk.accepted, 0u);
}

TEST(QaShrinker, RespectsTheAttemptBudget)
{
    qa::Scenario s;
    s.simInstructions = 300'000;
    s.fastForward = 50'000;
    unsigned calls = 0;
    qa::ShrinkOptions options;
    options.maxAttempts = 3;
    const auto shrunk = qa::shrinkScenario(
        s,
        [&calls](const qa::Scenario &) {
            ++calls;
            return true;
        },
        options);
    EXPECT_LE(calls, 3u);
    EXPECT_EQ(shrunk.attempts, calls);
}

TEST(QaOracles, DigestIsStableAndSensitive)
{
    qa::Scenario s;
    s.workload = "astar";
    s.org = core::MmuOrg::Base4K;
    s.simInstructions = 30'000;
    const auto a = sim::simulate(s.toSimConfig());
    const auto b = sim::simulate(s.toSimConfig());
    EXPECT_EQ(qa::resultDigest(a), qa::resultDigest(b));

    qa::Scenario other = s;
    other.seed = s.seed + 1;
    const auto c = sim::simulate(other.toSimConfig());
    EXPECT_NE(qa::resultDigest(a), qa::resultDigest(c));
}

TEST(QaOracles, EachOracleIsListedOnceInAVerdict)
{
    // A two-core run evaluates some oracles once per core.
    qa::Scenario single;
    single.simInstructions = 30'000;
    qa::Scenario dual = single;
    dual.cores = 2;
    dual.mixSpec = "mcf,canneal";
    for (const auto &s : {single, dual}) {
        const auto verdict = qa::runOracles(s);
        EXPECT_TRUE(verdict.passed()) << s.describe();
        const std::set<std::string> distinct(verdict.checked.begin(),
                                             verdict.checked.end());
        EXPECT_EQ(distinct.size(), verdict.checked.size()) << s.describe();
    }
}

TEST(QaOracles, FaultDetectionAllowsFlipsThatAreNeverRead)
{
    // Generated scenarios whose L2 ppn-flips land in entries no lookup
    // hits again: 79 flips in (77, 37), 295 in (3, 296). Silence is the
    // correct outcome there.
    for (const auto &[seed, id] :
         {std::pair<std::uint64_t, std::uint64_t>{77, 37}, {3, 296}}) {
        const auto s = qa::generateScenario(seed, id);
        const auto verdict = qa::runOracles(s);
        EXPECT_TRUE(verdict.passed())
            << s.describe() << ": " << verdict.violations.front();
    }
}

TEST(QaOracles, FaultDetectionJudgesConsumedFlips)
{
    const auto s = qa::loadScenario(std::string(EAT_CORPUS_DIR) +
                                    "/seed-fault-detect.json");
    ASSERT_TRUE(s.ok()) << s.status().message();
    const auto r = sim::simulate(s.value().toSimConfig());
    EXPECT_GT(r.inject.ppnFlipsConsumed, 0u);
    EXPECT_GT(r.check.mismatches(), 0u);

    const auto verdict = qa::runOracles(s.value());
    EXPECT_TRUE(verdict.passed());
    EXPECT_NE(std::find(verdict.checked.begin(), verdict.checked.end(),
                        "fault-detection"),
              verdict.checked.end());
}

TEST(QaOracles, SelfTestProvesTheOraclesHaveTeeth)
{
    // The acceptance demonstration: deliberately seeded defects (a
    // skipped energy charge, corrupted TLB fills) are caught and the
    // failure shrinks to a replayable seed.
    std::ostringstream log;
    const Status s = qa::runSelfTest(log);
    EXPECT_TRUE(s.ok()) << s.message() << "\nlog:\n" << log.str();
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

TEST(QaCampaign, SeedOneOutcomesMatchTheirGoldenDigests)
{
    // Pins the datapath's outcome on the first 100 scenarios of the
    // seed-1 campaign, which cover every organization, the combined
    // L1, both L3 substrates, nested paging, multicore and fault
    // plans. Each line of the golden file is the FNV-1a 64 of the
    // verdict digest `eatfuzz --seed=1` records for that scenario.
    const std::string path =
        std::string(EAT_CORPUS_DIR) + "/../golden/campaign_digests.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden digest file " << path;

    std::uint64_t index = 0;
    std::string hex;
    unsigned checked = 0;
    while (in >> index >> hex) {
        const auto s = qa::generateScenario(1, index);
        const auto r = mc::mcSimulate(s.toMcConfig());
        const std::string digest = s.multicore()
                                       ? qa::mcResultDigest(r)
                                       : qa::resultDigest(r.perCore[0]);
        EXPECT_EQ(fnv64(digest), std::stoull(hex, nullptr, 16))
            << "scenario " << index << " (" << s.describe()
            << ") changed outcome; new digest hash " << std::hex
            << fnv64(digest) << std::dec;
        ++checked;
    }
    EXPECT_EQ(checked, 100u);
}

TEST(QaCampaign, SmallCampaignIsCleanAndDeterministic)
{
    qa::CampaignOptions options;
    options.seed = 42;
    options.runs = 6;
    options.engine.jobs = 2;
    options.verdictsPath =
        test::scratchDir() + "qa_campaign_verdicts.jsonl";

    std::ostringstream log;
    const auto first = qa::runCampaign(options, log);
    ASSERT_TRUE(first.ok()) << first.status().message();
    EXPECT_EQ(first.value().passed, options.runs);
    EXPECT_TRUE(first.value().clean());

    std::ifstream verdicts(options.verdictsPath);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(verdicts, line)) {
        ++lines;
        EXPECT_NE(line.find("\"schema\":\"eat.qa.verdict\""),
                  std::string::npos)
            << line;
        EXPECT_NE(line.find("\"status\":\"pass\""), std::string::npos)
            << line;
    }
    EXPECT_EQ(lines, options.runs);
}

TEST(QaCampaign, ReplaysTheCheckedInCorpusClean)
{
    // The same replay CI runs: every seed in tests/corpus must pass
    // every applicable oracle.
    qa::CampaignOptions options;
    std::ostringstream log;
    const auto summary = qa::replayCorpus(EAT_CORPUS_DIR, options, log);
    ASSERT_TRUE(summary.ok()) << summary.status().message();
    EXPECT_GE(summary.value().scenarios, 6u)
        << "corpus unexpectedly small; see " << EAT_CORPUS_DIR;
    EXPECT_TRUE(summary.value().clean()) << log.str();
}

TEST(QaCampaign, ReplayGivesEverySeedAVerdictUnderTheWatchdog)
{
    // A seed that hangs costs its own child, not the replay: the seeds
    // after it still get their verdicts, in file order.
    const std::string dir = test::scratchDir();
    const std::string corpus = std::string(EAT_CORPUS_DIR) + "/";
    auto thp = qa::loadScenario(corpus + "seed-thp.json");
    ASSERT_TRUE(thp.ok()) << thp.status().message();
    const std::vector<std::string> files = {
        dir + "1-seed-thp.json", dir + "2-seed-thp-long.json",
        dir + "3-seed-rmm.json"};
    ASSERT_TRUE(qa::saveScenario(thp.value(), files[0]).ok());
    thp.value().simInstructions = 1'000'000'000;
    ASSERT_TRUE(qa::saveScenario(thp.value(), files[1]).ok());
    const auto rmm = qa::loadScenario(corpus + "seed-rmm.json");
    ASSERT_TRUE(rmm.ok()) << rmm.status().message();
    ASSERT_TRUE(qa::saveScenario(rmm.value(), files[2]).ok());

    qa::CampaignOptions options;
    options.engine.timeoutSeconds = 1;
    options.verdictsPath = dir + "verdicts.jsonl";
    std::ostringstream log;
    const auto summary = qa::replayCorpus(dir, options, log);
    ASSERT_TRUE(summary.ok()) << summary.status().message();
    EXPECT_EQ(summary.value().scenarios, 3u) << log.str();
    EXPECT_EQ(summary.value().passed, 2u) << log.str();
    EXPECT_EQ(summary.value().crashed, 1u) << log.str();

    std::ifstream in(options.verdictsPath);
    std::vector<std::pair<std::string, std::string>> verdicts;
    for (std::string line; std::getline(in, line);) {
        const auto o = obs::parseJson(line);
        ASSERT_TRUE(o.ok()) << line;
        verdicts.emplace_back(o.value().find("status")->string,
                              o.value().find("seed_file")->string);
    }
    const std::vector<std::pair<std::string, std::string>> expected = {
        {"pass", files[0]}, {"timeout", files[1]}, {"pass", files[2]}};
    EXPECT_EQ(verdicts, expected) << log.str();
}

} // namespace
} // namespace eat
