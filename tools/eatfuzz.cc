/**
 * @file
 * eatfuzz: property-based fuzzing driver for the whole simulator.
 *
 *   eatfuzz [--runs=N] [--seed=N] [-jN | --jobs=N] [--timeout=SECONDS]
 *           [--corpus-dir=DIR] [--verdicts=PATH] [--no-shrink]
 *           [--retries=N] [--checkpoint=PATH] [--resume]
 *   eatfuzz --replay=PATH_OR_DIR [-jN] [--timeout=SECONDS] [--retries=N]
 *           [--verdicts=PATH]
 *   eatfuzz --shrink=SEEDFILE [--corpus-dir=DIR]
 *   eatfuzz --self-test
 *
 * The default mode generates N scenarios deterministically from the
 * campaign seed, runs each in its own process (a crash or hang costs
 * one scenario, never the campaign), and judges it with the metamorphic
 * oracle suite. Failing scenarios are shrunk to minimal replayable seed
 * files under --corpus-dir, and every scenario emits one JSONL verdict,
 * in scenario-id order whatever the job count.
 *
 * With --checkpoint every settled scenario is journaled (flushed per
 * record): after a crash or kill -9 of the driver, the same command
 * plus --resume replays the journal instead of re-running, and the
 * final verdict file is byte-identical to an uninterrupted campaign.
 * --retries re-runs transient failures (spawn failure, signal death,
 * watchdog timeout) with bounded backoff; scenarios that still fail
 * are quarantined into <checkpoint>.quarantine and the campaign keeps
 * going. SIGINT/SIGTERM stop dispatch cleanly and leave resumable
 * state.
 *
 * --replay re-judges saved seed files (regression mode) on the same
 * engine, one child per seed file, under -j, --timeout and --retries;
 * --shrink minimizes one known-failing seed; --self-test proves the
 * oracles catch deliberately seeded defects. Each mode takes only the
 * flags listed for it above; any other flag is a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/parse.hh"
#include "campaign/engine.hh"
#include "qa/campaign.hh"
#include "qa/oracles.hh"
#include "qa/shrinker.hh"

namespace
{

using namespace eat;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "       %s --replay=PATH_OR_DIR [-jN] [--timeout=SECONDS]\n"
        "                 [--retries=N] [--verdicts=PATH]\n"
        "       %s --shrink=SEEDFILE [--corpus-dir=DIR]\n"
        "       %s --self-test\n"
        "\n"
        "campaign options:\n"
        "  --runs=N          scenarios to generate (default 100)\n"
        "  --seed=N          campaign seed; scenario i is a pure\n"
        "                    function of (seed, i) (default 1)\n"
        "  -jN, --jobs=N     scenarios run concurrently (default 1)\n"
        "  --timeout=SECONDS per-scenario watchdog (default 120)\n"
        "  --corpus-dir=DIR  archive failing seeds here\n"
        "  --verdicts=PATH   JSONL verdict record per scenario\n"
        "  --no-shrink       archive failures without minimizing\n"
        "  --retries=N       retry transient scenario failures (spawn\n"
        "                    failure, signal, timeout) up to N times\n"
        "                    with backoff (0..10, default 0); what\n"
        "                    still fails is quarantined\n"
        "  --checkpoint=PATH journal every settled scenario here\n"
        "  --resume          replay the checkpoint journal instead of\n"
        "                    re-running settled scenarios (requires\n"
        "                    --checkpoint)\n"
        "\n"
        "exit status: 0 all scenarios pass, 1 violations or crashes,\n"
        "2 usage error, 128+N interrupted by signal N\n",
        argv0, argv0, argv0, argv0);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const std::string &text)
{
    const auto r = parseU64(text);
    if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", flag,
                     std::string(r.status().message()).c_str());
        std::exit(2);
    }
    return r.value();
}

/** A mode other than the campaign and the flags it takes besides its
 *  own; campaign mode takes every flag. */
struct Mode
{
    std::string_view flag;
    std::vector<std::string_view> takes;
};

const Mode kModes[] = {
    {"--replay", {"-j", "--jobs", "--timeout", "--retries", "--verdicts"}},
    {"--shrink", {"--corpus-dir"}},
    {"--self-test", {}},
};

/** The flag an argument gives: "--runs" for "--runs=5", "-j" for
 *  "-j4". */
std::string_view
flagOf(std::string_view arg)
{
    if (arg.starts_with("-j"))
        return "-j";
    return arg.substr(0, arg.find('='));
}

bool
takes(const Mode &mode, std::string_view flag)
{
    return flag == mode.flag ||
           std::find(mode.takes.begin(), mode.takes.end(), flag) !=
               mode.takes.end();
}

int
report(const Result<qa::CampaignSummary> &result, const char *mode)
{
    if (!result.ok()) {
        std::fprintf(stderr, "eatfuzz: %s\n",
                     std::string(result.status().message()).c_str());
        return 1;
    }
    const auto &s = result.value();
    std::cout << "\n" << mode << ": " << s.scenarios << " scenarios, "
              << s.passed << " pass, " << s.failed << " fail, "
              << s.crashed << " crash";
    if (s.engine.replayed > 0)
        std::cout << "; " << s.engine.replayed
                  << " replayed from checkpoint";
    if (s.engine.quarantined > 0)
        std::cout << "; " << s.engine.quarantined << " quarantined";
    if (s.engine.retries > 0)
        std::cout << "; " << s.engine.retries << " retries";
    if (!s.savedSeeds.empty())
        std::cout << "; " << s.savedSeeds.size() << " seeds saved";
    std::cout << "\n";
    if (s.engine.interrupted()) {
        std::fprintf(stderr,
                     "eatfuzz: interrupted by signal %d; rerun with "
                     "--resume to finish the campaign\n",
                     s.engine.interruptSignal);
        return 128 + s.engine.interruptSignal;
    }
    return s.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    qa::CampaignOptions options;
    std::string replayPath, shrinkPath;
    bool selfTest = false;
    std::vector<std::string_view> given; // every flag, in order

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        given.push_back(flagOf(argv[i]));
        if (const char *v = value("--runs=")) {
            options.runs = parseCount("--runs", v);
        } else if (const char *v2 = value("--seed=")) {
            options.seed = parseCount("--seed", v2);
        } else if (const char *v4 = value("--corpus-dir=")) {
            options.corpusDir = v4;
        } else if (const char *v5 = value("--verdicts=")) {
            options.verdictsPath = v5;
        } else if (const char *v6 = value("--replay=")) {
            replayPath = v6;
        } else if (const char *v7 = value("--shrink=")) {
            shrinkPath = v7;
        } else if (arg == "--no-shrink") {
            options.shrink = false;
        } else if (arg == "--self-test") {
            selfTest = true;
        } else {
            // --kill-after is an undocumented testing aid.
            const auto taken = campaign::takeEngineFlag(arg, options.engine);
            if (!taken.ok()) {
                std::fprintf(stderr, "%s\n",
                             taken.status().message().c_str());
                return 2;
            }
            if (!taken.value())
                usage(argv[0]);
        }
    }
    if (static_cast<int>(!replayPath.empty()) +
            static_cast<int>(!shrinkPath.empty()) +
            static_cast<int>(selfTest) > 1) {
        std::fprintf(stderr, "--replay, --shrink, and --self-test are "
                             "mutually exclusive\n");
        return 2;
    }
    const Mode *mode = !replayPath.empty()   ? &kModes[0]
                       : !shrinkPath.empty() ? &kModes[1]
                       : selfTest            ? &kModes[2]
                                             : nullptr;
    for (const std::string_view flag : given) {
        if (!mode || takes(*mode, flag))
            continue;
        std::string modes = "campaign mode";
        for (const Mode &other : kModes) {
            if (takes(other, flag))
                modes += " and " + std::string(other.flag) + " mode";
        }
        std::fprintf(stderr, "%s does not apply to %s mode; it applies "
                             "to %s\n",
                     std::string(flag).c_str(),
                     std::string(mode->flag).c_str(), modes.c_str());
        return 2;
    }
    if (options.engine.resume && options.engine.journalPath.empty()) {
        std::fprintf(stderr, "--resume requires --checkpoint=PATH (the "
                             "journal to replay)\n");
        return 2;
    }

    if (selfTest) {
        const Status s = qa::runSelfTest(std::cout);
        if (!s.ok()) {
            std::fprintf(stderr, "eatfuzz: self-test FAILED: %s\n",
                         std::string(s.message()).c_str());
            return 1;
        }
        std::cout << "self-test: ok\n";
        return 0;
    }

    if (!shrinkPath.empty()) {
        const auto loaded = qa::loadScenario(shrinkPath);
        if (!loaded.ok()) {
            std::fprintf(stderr, "eatfuzz: %s\n",
                         std::string(loaded.status().message()).c_str());
            return 1;
        }
        const auto &scenario = loaded.value();
        std::cout << "shrinking " << scenario.describe() << "\n";
        if (qa::runOracles(scenario).passed()) {
            std::fprintf(stderr, "eatfuzz: %s does not fail any oracle; "
                                 "nothing to shrink\n",
                         shrinkPath.c_str());
            return 1;
        }
        const auto shrunk = qa::shrinkScenario(
            scenario,
            [](const qa::Scenario &c) {
                return !qa::runOracles(c).passed();
            });
        std::cout << "shrunk in " << shrunk.attempts << " attempts ("
                  << shrunk.accepted << " accepted) -> "
                  << shrunk.scenario.describe() << "\n";
        const std::string out = options.corpusDir.empty()
                                    ? shrinkPath
                                    : options.corpusDir + "/shrunk-" +
                                          std::to_string(
                                              shrunk.scenario.id) +
                                          ".json";
        if (const Status s = qa::saveScenario(shrunk.scenario, out);
            !s.ok()) {
            std::fprintf(stderr, "eatfuzz: %s\n",
                         std::string(s.message()).c_str());
            return 1;
        }
        std::cout << "saved " << out << "\n";
        return 0;
    }

    if (!replayPath.empty())
        return report(qa::replayCorpus(replayPath, options, std::cout),
                      "replay");
    return report(qa::runCampaign(options, std::cout), "campaign");
}
