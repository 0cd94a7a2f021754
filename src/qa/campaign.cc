#include "qa/campaign.hh"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "campaign/engine.hh"
#include "obs/json.hh"
#include "qa/generator.hh"
#include "qa/oracles.hh"
#include "qa/shrinker.hh"

namespace eat::qa
{

namespace
{

namespace fs = std::filesystem;

std::string
join(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (const auto &part : parts) {
        if (!out.empty())
            out += sep;
        out += part;
    }
    return out;
}

/**
 * The per-scenario child work: run the oracle suite and report the
 * verdict as one JSON object over the pipe. Exceptions become failing
 * verdicts; crashes and hangs are the pool's department.
 */
std::string
judgeScenario(const Scenario &scenario)
{
    obs::JsonObject json;
    try {
        const auto verdict = runOracles(scenario);
        json.put("passed", verdict.passed());
        json.put("checked", join(verdict.checked, ","));
        json.put("violations", join(verdict.violations, "; "));
        json.put("digest", verdict.digest);
    } catch (const std::exception &e) {
        json = obs::JsonObject();
        json.put("passed", false);
        json.put("checked", "");
        json.put("violations",
                 std::string("oracle-harness: exception: ") + e.what());
        json.put("digest", "");
    }
    return json.str();
}

/** Everything one verdict JSONL record carries. */
struct VerdictRecord
{
    std::uint64_t id = 0;
    std::string scenario;
    std::string status; ///< "pass", "fail", "crash", "timeout"
    std::string checked;
    std::string violations;
    std::string digest;
    std::string seedFile;
    /** v2 diagnostics: what actually happened to the child. */
    std::string failureClass = "none";
    int exitCode = 0;
    int termSignal = 0;
    unsigned attempts = 1;
};

void
writeVerdict(std::ofstream &out, const VerdictRecord &rec)
{
    if (!out.is_open())
        return;
    obs::JsonObject json;
    json.put("schema", kVerdictSchema);
    json.put("v", kVerdictVersion);
    json.put("id", rec.id);
    json.put("scenario", rec.scenario);
    json.put("status", rec.status);
    json.put("checked", rec.checked);
    json.put("violations", rec.violations);
    json.put("digest", rec.digest);
    json.put("seed_file", rec.seedFile);
    json.put("failure_class", rec.failureClass);
    json.put("exit_code", rec.exitCode);
    json.put("term_signal", rec.termSignal);
    json.put("attempts", rec.attempts);
    out << json.str() << '\n';
    out.flush(); // a partial campaign must still leave whole records
}

/** Archive @p scenario (shrunk if requested) under the corpus dir. */
std::string
archiveFailure(const Scenario &scenario, const CampaignOptions &options,
               bool shrinkFirst, bool reuseExisting, std::ostream &log,
               CampaignSummary &summary)
{
    if (options.corpusDir.empty())
        return "";

    // The archive name uses the scenario id (which shrinking keeps),
    // so the path is known before any work happens.
    std::ostringstream name;
    name << "seed-" << scenario.id << ".json";
    const std::string path =
        (fs::path(options.corpusDir) / name.str()).string();

    // A verdict replayed from the checkpoint journal archived its seed
    // during the original run; do not redo the shrink work. (If the
    // kill landed between the checkpoint and the save, the file is
    // missing and we archive it now.)
    std::error_code ec;
    if (reuseExisting && fs::exists(path, ec)) {
        summary.savedSeeds.push_back(path);
        return path;
    }

    Scenario seed = scenario;
    if (shrinkFirst && options.shrink) {
        const auto shrunk = shrinkScenario(
            seed, [](const Scenario &c) { return !runOracles(c).passed(); });
        log << "  shrink: " << shrunk.accepted << " simplifications in "
            << shrunk.attempts << " attempts -> "
            << shrunk.scenario.describe() << "\n";
        seed = shrunk.scenario;
    }

    if (const Status s = saveScenario(seed, path); !s.ok()) {
        log << "  warning: " << s.message() << "\n";
        return "";
    }
    summary.savedSeeds.push_back(path);
    log << "  saved " << path << "\n";
    return path;
}

/** Judge one final outcome in the parent; fills @p rec and @p summary.
 *  @p seedFile names the file a replayed scenario came from; a
 *  generated scenario has none, and its failures are archived. */
void
settleVerdict(const campaign::TaskOutcome &outcome,
              const Scenario &scenario, const std::string &seedFile,
              const CampaignOptions &options, std::ostream &log,
              CampaignSummary &summary, VerdictRecord &rec)
{
    using campaign::FailureClass;
    rec.id = scenario.id;
    rec.scenario = scenario.describe();
    rec.seedFile = seedFile;
    rec.failureClass =
        std::string(campaign::failureClassName(outcome.failure));
    rec.exitCode = outcome.exitCode;
    rec.termSignal = outcome.termSignal;
    rec.attempts = outcome.attempts;

    switch (outcome.failure) {
      case FailureClass::None: {
        const auto parsed = obs::parseJson(outcome.payload);
        const obs::JsonValue *passed =
            parsed.ok() ? parsed.value().find("passed") : nullptr;
        if (!passed || !passed->isBool()) {
            rec.status = "crash";
            rec.violations = "garbled child verdict";
            break;
        }
        if (const auto *v = parsed.value().find("checked");
            v && v->isString())
            rec.checked = v->string;
        if (const auto *v = parsed.value().find("violations");
            v && v->isString())
            rec.violations = v->string;
        if (const auto *v = parsed.value().find("digest");
            v && v->isString())
            rec.digest = v->string;
        rec.status = passed->boolean ? "pass" : "fail";
        break;
      }
      case FailureClass::BadPayload:
        rec.status = "crash";
        rec.violations = "garbled child verdict";
        break;
      case FailureClass::TimedOut:
        rec.status = "timeout";
        rec.violations = campaign::describeFailure(
            outcome, options.engine.timeoutSeconds);
        break;
      case FailureClass::NonzeroExit:
      case FailureClass::Crashed:
      case FailureClass::SpawnFailed:
        rec.status = "crash";
        rec.violations = campaign::describeFailure(
            outcome, options.engine.timeoutSeconds);
        break;
    }

    if (rec.status == "pass") {
        ++summary.passed;
        return;
    }
    log << "scenario " << scenario.id << " " << rec.status << ": "
        << rec.violations << "\n  " << rec.scenario << "\n";
    const bool failed = rec.status == "fail";
    ++(failed ? summary.failed : summary.crashed);
    // Only oracle failures shrink: the scenario demonstrably runs to
    // completion, so in-parent re-runs are safe.
    if (seedFile.empty())
        rec.seedFile = archiveFailure(scenario, options, failed,
                                      outcome.fromCheckpoint, log, summary);
}

Result<std::ofstream>
openVerdicts(const std::string &path)
{
    std::ofstream out;
    if (path.empty())
        return out;
    out.open(path, std::ios::trunc);
    if (!out)
        return Status::error("cannot write verdicts to '", path, "'");
    return out;
}

/**
 * Judge @p scenarios on the campaign engine, one child each, and write
 * their verdicts in order. @p seedFiles[i] names the file scenario i
 * was loaded from, or is empty for a generated one (see settleVerdict);
 * it also keys the task. @p engine is the caller's copy of
 * options.engine; this sets its payloadOk and acceptCheckpoint.
 */
Result<CampaignSummary>
judgeScenarios(const std::vector<Scenario> &scenarios,
               const std::vector<std::string> &seedFiles,
               campaign::EngineOptions engine,
               const CampaignOptions &options, std::ostream &log)
{
    auto verdicts = openVerdicts(options.verdictsPath);
    if (!verdicts.ok())
        return verdicts.status();

    std::vector<campaign::EngineTask> tasks;
    tasks.reserve(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &scenario = scenarios[i];
        tasks.push_back({seedFiles[i].empty()
                             ? "scenario-" + std::to_string(scenario.id)
                             : seedFiles[i],
                         [scenario] { return judgeScenario(scenario); }});
    }

    CampaignSummary summary;
    summary.scenarios = scenarios.size();
    std::uint64_t completed = 0;

    // Verdicts are emitted in task order whatever the job count:
    // settled records buffer here until every earlier task has settled
    // too, so the verdict file of a parallel, killed, and resumed
    // campaign is byte-identical to a serial uninterrupted one. (A kill
    // loses only buffered-not-yet-written verdicts, and those replay
    // from the journal on resume.)
    std::vector<VerdictRecord> buffered(scenarios.size());
    std::vector<char> settled(scenarios.size(), 0);
    std::size_t nextToWrite = 0;

    engine.payloadOk = [](const std::string &payload) {
        const auto parsed = obs::parseJson(payload);
        const obs::JsonValue *passed =
            parsed.ok() ? parsed.value().find("passed") : nullptr;
        return passed != nullptr && passed->isBool();
    };
    // Any settled verdict satisfies its scenario on resume: a crash or
    // timeout is a result worth keeping, not work to redo.
    engine.acceptCheckpoint = [](const campaign::TaskOutcome &) {
        return true;
    };

    const auto engineRun = campaign::runEngine(
        engine, tasks,
        [&](std::size_t index, const campaign::TaskOutcome &outcome,
            std::size_t inFlight) {
            VerdictRecord &rec = buffered[index];
            settleVerdict(outcome, scenarios[index], seedFiles[index],
                          options, log, summary, rec);
            settled[index] = 1;
            while (nextToWrite < settled.size() &&
                   settled[nextToWrite]) {
                writeVerdict(verdicts.value(), buffered[nextToWrite]);
                ++nextToWrite;
            }
            ++completed;
            if (completed % 25 == 0 || completed == scenarios.size()) {
                log << "[" << completed << "/" << scenarios.size() << "] "
                    << summary.passed << " pass, " << summary.failed
                    << " fail, " << summary.crashed << " crash, "
                    << inFlight << " in flight\n";
            }
            return true;
        },
        log);
    if (!engineRun.ok())
        return engineRun.status();
    summary.engine = engineRun.value();
    return summary;
}

} // namespace

Result<CampaignSummary>
runCampaign(const CampaignOptions &options, std::ostream &log)
{
    if (options.runs == 0)
        return Status::error("no scenarios requested");
    if (options.engine.resume && options.engine.journalPath.empty())
        return Status::error("resume requires a checkpoint journal");
    if (!options.corpusDir.empty()) {
        std::error_code ec;
        fs::create_directories(options.corpusDir, ec);
        if (ec) {
            return Status::error("cannot create corpus dir '",
                                 options.corpusDir, "': ", ec.message());
        }
    }

    std::vector<Scenario> scenarios;
    scenarios.reserve(options.runs);
    for (std::uint64_t i = 0; i < options.runs; ++i)
        scenarios.push_back(generateScenario(options.seed, i));

    campaign::EngineOptions engine = options.engine;
    engine.fingerprint = "eatfuzz|v1|seed=" +
                         std::to_string(options.seed) +
                         "|runs=" + std::to_string(options.runs) +
                         "|shrink=" + (options.shrink ? "1" : "0");
    return judgeScenarios(scenarios,
                          std::vector<std::string>(scenarios.size()),
                          engine, options, log);
}

Result<CampaignSummary>
replayCorpus(const std::string &path, const CampaignOptions &options,
             std::ostream &log)
{
    std::vector<std::string> files;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (const auto &entry : fs::directory_iterator(path, ec)) {
            if (entry.path().extension() == ".json")
                files.push_back(entry.path().string());
        }
        if (ec) {
            return Status::error("cannot list corpus dir '", path,
                                 "': ", ec.message());
        }
        std::sort(files.begin(), files.end());
        if (files.empty())
            return Status::error("no *.json seed files in '", path, "'");
    } else {
        files.push_back(path);
    }

    std::vector<Scenario> scenarios;
    for (const auto &file : files) {
        auto loaded = loadScenario(file);
        if (!loaded.ok())
            return loaded.status();
        log << "replay " << file << ": " << loaded.value().describe()
            << "\n";
        scenarios.push_back(std::move(loaded.value()));
    }
    campaign::EngineOptions engine = options.engine;
    engine.journalPath.clear();
    engine.resume = false;
    engine.killAfterCheckpoints = 0;
    return judgeScenarios(scenarios, files, engine, options, log);
}

Status
runSelfTest(std::ostream &log)
{
    // A deliberately noisy scenario: every shrinkable feature enabled,
    // so the shrinker has weight to shed.
    Scenario s;
    s.id = 0;
    s.workload = "mcf";
    s.org = core::MmuOrg::Thp;
    s.simInstructions = 120'000;
    s.fastForward = 20'000;
    s.timelineInterval = 10'000;
    s.seed = 7;

    log << "self-test: healthy run must pass every oracle\n";
    const auto healthy = runOracles(s);
    if (!healthy.passed()) {
        return Status::error("healthy scenario failed: ",
                             join(healthy.violations, "; "));
    }
    if (healthy.checked.size() < 4) {
        return Status::error("healthy scenario only exercised ",
                             healthy.checked.size(), " oracles");
    }

    log << "self-test: a skipped energy charge must be caught\n";
    const auto skip = runOracles(s, Mutation::SkipEnergyCharge);
    if (skip.passed())
        return Status::error("skipped energy charge went unnoticed");
    if (join(skip.violations, "; ").find("energy-conservation") ==
        std::string::npos) {
        return Status::error("wrong oracle caught the skipped charge: ",
                             join(skip.violations, "; "));
    }

    log << "self-test: corrupted TLB fills must be caught\n";
    const auto corrupt = runOracles(s, Mutation::CorruptTlbFill);
    if (corrupt.passed())
        return Status::error("corrupted TLB fills went unnoticed");
    if (join(corrupt.violations, "; ").find("checker-silence") ==
        std::string::npos) {
        return Status::error("wrong oracle caught the corruption: ",
                             join(corrupt.violations, "; "));
    }

    log << "self-test: the failure must shrink to a minimal seed\n";
    const auto stillFails = [](const Scenario &c) {
        return !runOracles(c, Mutation::CorruptTlbFill).passed();
    };
    const auto shrunk = shrinkScenario(s, stillFails);
    log << "  " << shrunk.accepted << " simplifications in "
        << shrunk.attempts << " attempts -> "
        << shrunk.scenario.describe() << "\n";
    if (shrunk.scenario.simInstructions >= s.simInstructions)
        return Status::error("shrinker failed to reduce the window");
    if (shrunk.scenario.fastForward != 0 ||
        shrunk.scenario.timelineInterval != 0) {
        return Status::error("shrinker kept irrelevant features: ",
                             shrunk.scenario.describe());
    }
    if (!stillFails(shrunk.scenario))
        return Status::error("shrunk scenario no longer fails");

    log << "self-test: the shrunk seed must replay after a round-trip\n";
    const std::string path =
        (fs::temp_directory_path() / "eat-qa-selftest-seed.json").string();
    if (const Status st = saveScenario(shrunk.scenario, path); !st.ok())
        return st;
    const auto loaded = loadScenario(path);
    std::error_code ec;
    fs::remove(path, ec);
    if (!loaded.ok())
        return loaded.status();
    if (loaded.value().toJson() != shrunk.scenario.toJson())
        return Status::error("seed changed across a save/load round-trip");
    if (!stillFails(loaded.value()))
        return Status::error("reloaded seed no longer fails");

    log << "self-test: all properties hold\n";
    return Status();
}

} // namespace eat::qa
