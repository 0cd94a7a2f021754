/**
 * @file
 * Tests of the knob table (mc/run_spec.hh): every front end must read
 * a knob the same way, and every knob must reach eatbatch's resume
 * fingerprint.
 */

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mc/run_spec.hh"
#include "scratch_dir.hh"
#include "sim/batch.hh"

namespace eat::mc
{
namespace
{

/** A value away from the default for every knob, by Knob::name(). */
const std::map<std::string, std::string, std::less<>> kMoved = {
    {"workload", "astar"},
    {"org", "RMM"},
    {"instructions", "12345"},
    {"fast_forward", "777"},
    {"seed", "18446744073709551557"},
    {"timeline_interval", "1000"},
    {"eager_ranges", "2"},
    {"combined_l1", "true"},
    {"lite_interval", "5000"},
    {"lite_epsilon", "0.1234567890123456"},
    {"lite_full_act_prob", "0.03125"},
    {"fault_spec", "ppn-flip@l1-4k:0.001"},
    {"check", "paddr"},
    {"cores", "3"},
    {"mix", "canneal,omnetpp"},
    {"shared_space", "true"},
    {"ctx_flush", "true"},
    {"quantum", "5000"},
    {"remap_interval", "20000"},
    {"fault_core", "1"},
    {"coherence", "hw"},
    {"vm", "identity"},
    {"host_pages", "2m"},
    {"l3", "dram"},
    {"l3_policy", "promote"},
    {"l3_promote_streak", "3"},
};

/** The flags a knob's requires-rule asks for, by Knob::name(). */
const std::map<std::string, std::vector<std::string>, std::less<>>
    kPrerequisites = {
        {"shared_space", {"--cores=2"}},
        {"ctx_flush", {"--cores=2"}},
        {"quantum", {"--cores=2"}},
        {"remap_interval", {"--cores=2"}},
        {"fault_core", {"--cores=2"}},
        {"coherence", {"--cores=2"}},
        {"host_pages", {"--vm"}},
        {"l3_policy", {"--l3=cache"}},
        {"l3_promote_streak", {"--l3=cache", "--l3-policy=promote"}},
};

/** @p knob set to @p value on a command line. */
std::string
flagArg(const Knob &knob, const std::string &value)
{
    if (knob.json == JsonKind::Bool)
        return std::string(knob.flag);
    return std::string(knob.flag) + "=" + value;
}

/** The seed-file object that sets what @p args set on a command line
 *  (every other required key at the command line's default). */
obs::JsonValue
seedOf(const std::vector<std::string> &args)
{
    const RunSpec defaults = RunSpec::commandLine();
    obs::JsonObject json;
    for (const Knob &k : runKnobs()) {
        if (k.key.empty())
            continue;
        std::optional<std::string> text;
        if (!k.saved)
            text = k.print(defaults);
        for (const auto &arg : args) {
            const std::string flag(k.flag);
            if (arg == flag)
                text = std::string(k.bare);
            else if (arg.rfind(flag + "=", 0) == 0)
                text = arg.substr(flag.size() + 1);
        }
        if (!text)
            continue;
        if (k.json == JsonKind::String)
            json.put(k.key, *text);
        else
            json.putRaw(k.key, *text);
    }
    return obs::parseJson(json.str()).value();
}

TEST(RunSpecTable, EveryKnobPrintsExactly)
{
    for (const Knob &k : runKnobs()) {
        const auto moved = kMoved.find(k.name());
        ASSERT_NE(moved, kMoved.end()) << k.name() << " has no test value";
        RunSpec spec;
        ASSERT_TRUE(k.parse(spec, moved->second).ok()) << k.name();
        RunSpec again;
        ASSERT_TRUE(k.parse(again, k.print(spec)).ok()) << k.name();
        EXPECT_TRUE(again == spec) << k.name() << ": " << k.print(spec);
    }
}

TEST(RunSpecTable, FlagAndSeedKeyDescribeTheSameRun)
{
    for (const Knob &k : runKnobs()) {
        if (k.key.empty() || !(k.tools & kEatsim) || !(k.tools & kEatbatch))
            continue;
        std::vector<std::string> args;
        if (const auto pre = kPrerequisites.find(k.name());
            pre != kPrerequisites.end())
            args = pre->second;
        args.push_back(flagArg(k, kMoved.find(k.name())->second));

        const auto seed = readKnobs(seedOf(args));
        ASSERT_TRUE(seed.ok()) << k.name() << ": "
                               << seed.status().message();
        for (const unsigned tool : {kEatsim, kEatbatch}) {
            RunFlags flags(tool);
            for (const auto &arg : args) {
                const auto taken = flags.take(arg);
                ASSERT_TRUE(taken.ok() && taken.value()) << arg;
            }
            ASSERT_TRUE(flags.check().ok()) << flags.check().message();
            EXPECT_EQ(fingerprint(flags.spec), fingerprint(seed.value()))
                << k.name();
            EXPECT_NE(fingerprint(flags.spec),
                      fingerprint(RunSpec::commandLine()))
                << k.name();
        }
    }
}

TEST(RunSpecTable, EveryKnobEntersTheResumeFingerprint)
{
    // A sweep's journal may only be resumed by the same sweep: moving
    // any one knob away from the journaled value must be refused.
    sim::BatchOptions options;
    options.workloadNames = {"mcf"};
    options.orgs = {core::MmuOrg::Base4K};
    options.spec.simInstructions = 20'000;
    options.spec.fastForward = 2'000;
    options.outPath = test::scratchDir() + "run_spec_fp.csv";
    std::ostringstream log;
    ASSERT_TRUE(sim::runBatch(options, log).ok()) << log.str();

    for (const Knob &k : runKnobs()) {
        auto moved = options;
        moved.engine.resume = true;
        ASSERT_TRUE(k.parse(moved.spec, kMoved.find(k.name())->second).ok())
            << k.name();
        const auto refused = sim::runBatch(moved, log);
        ASSERT_FALSE(refused.ok()) << k.name() << " left the fingerprint";
        EXPECT_NE(refused.status().message().find("different campaign"),
                  std::string::npos)
            << refused.status().message();
    }
}

TEST(RunSpecTable, CoresWithoutAMixRunsTheWorkloadsAsTheMix)
{
    RunFlags one(kEatsim);
    ASSERT_TRUE(one.take("--cores=1").value());
    one.defaultMix("mcf");
    EXPECT_TRUE(one.spec.multicore());
    EXPECT_EQ(one.spec.mixSpec, "mcf");

    RunFlags mixed(kEatbatch);
    ASSERT_TRUE(mixed.take("--mix=astar").value());
    ASSERT_TRUE(mixed.take("--cores=1").value());
    mixed.defaultMix("mcf,canneal");
    EXPECT_EQ(mixed.spec.mixSpec, "astar");
}

TEST(RunSpecTable, FlagsAToolDoesNotTakeAreLeftAlone)
{
    RunFlags bench(kBench);
    EXPECT_TRUE(bench.take("--seed=9").value());
    EXPECT_FALSE(bench.take("--cores=2").value());
    RunFlags batch(kEatbatch);
    EXPECT_FALSE(batch.take("--fault-core=1").value());
    EXPECT_FALSE(batch.take("--shared=true").value())
        << "a switch takes no value";
    EXPECT_FALSE(batch.take("--l3-policyx=walk").value());
}

} // namespace
} // namespace eat::mc
