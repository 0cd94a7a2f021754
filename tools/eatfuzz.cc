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
 * oracles catch deliberately seeded defects.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "base/parse.hh"
#include "campaign/retry.hh"
#include "qa/campaign.hh"
#include "qa/oracles.hh"
#include "qa/shrinker.hh"
#include "sim/batch.hh"

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
    if (s.replayed > 0)
        std::cout << "; " << s.replayed << " replayed from checkpoint";
    if (s.quarantined > 0)
        std::cout << "; " << s.quarantined << " quarantined";
    if (s.retries > 0)
        std::cout << "; " << s.retries << " retries";
    if (!s.savedSeeds.empty())
        std::cout << "; " << s.savedSeeds.size() << " seeds saved";
    std::cout << "\n";
    if (s.interrupted()) {
        std::fprintf(stderr,
                     "eatfuzz: interrupted by signal %d; rerun with "
                     "--resume to finish the campaign\n",
                     s.interruptSignal);
        return 128 + s.interruptSignal;
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

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        auto setJobs = [&options](const char *text) {
            const auto jobs = sim::parseJobs(text);
            if (!jobs.ok()) {
                std::fprintf(stderr, "--jobs: %s\n",
                             std::string(jobs.status().message()).c_str());
                std::exit(2);
            }
            options.jobs = jobs.value();
        };
        if (const char *v = value("--runs=")) {
            options.runs = parseCount("--runs", v);
        } else if (const char *v2 = value("--seed=")) {
            options.seed = parseCount("--seed", v2);
        } else if (const char *v3 = value("--timeout=")) {
            options.timeoutSeconds =
                static_cast<unsigned>(parseCount("--timeout", v3));
        } else if (const char *v4 = value("--corpus-dir=")) {
            options.corpusDir = v4;
        } else if (const char *v5 = value("--verdicts=")) {
            options.verdictsPath = v5;
        } else if (const char *v6 = value("--replay=")) {
            replayPath = v6;
        } else if (const char *v7 = value("--shrink=")) {
            shrinkPath = v7;
        } else if (const char *v8 = value("--jobs=")) {
            setJobs(v8);
        } else if (const char *v10 = value("--retries=")) {
            const auto retries = campaign::parseRetries(v10);
            if (!retries.ok()) {
                std::fprintf(stderr, "--%s\n",
                             std::string(retries.status().message())
                                 .c_str());
                return 2;
            }
            options.retries = retries.value();
        } else if (const char *v11 = value("--checkpoint=")) {
            if (*v11 == '\0') {
                std::fprintf(stderr,
                             "--checkpoint: path must not be empty\n");
                return 2;
            }
            options.checkpointPath = v11;
        } else if (const char *v12 = value("--kill-after=")) {
            // Undocumented testing aid: SIGKILL this process after N
            // checkpoint appends (crash-resume suite).
            options.killAfterCells = static_cast<unsigned>(
                parseCount("--kill-after", v12));
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (const char *v9 = value("-j")) {
            setJobs(v9);
        } else if (arg == "--no-shrink") {
            options.shrink = false;
        } else if (arg == "--self-test") {
            selfTest = true;
        } else {
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
    if (options.resume && options.checkpointPath.empty()) {
        std::fprintf(stderr, "--resume requires --checkpoint=PATH (the "
                             "journal to replay)\n");
        return 2;
    }
    if ((options.resume || !options.checkpointPath.empty()) &&
        (!replayPath.empty() || !shrinkPath.empty() || selfTest)) {
        std::fprintf(stderr, "--checkpoint/--resume only apply to the "
                             "campaign mode\n");
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
