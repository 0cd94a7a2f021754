/**
 * @file
 * Tests for the crash-resilient campaign layer: JSONL truncation
 * tolerance, the retry policy and failure taxonomy, checkpoint-journal
 * recovery, the engine's retry/quarantine/replay behavior, and — at
 * the binary level — the headline guarantee: kill -9 a campaign
 * mid-run, resume it, and the merged output is byte-identical (modulo
 * wall-clock columns) to an uninterrupted run, for both eatbatch and
 * eatfuzz, at -j1 and -j4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/engine.hh"
#include "campaign/journal.hh"
#include "campaign/jsonl.hh"
#include "campaign/retry.hh"
#include "sim/batch.hh"
#include "scratch_dir.hh"

namespace eat::campaign
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return test::scratchDir() + name;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

// ---- JSONL truncation tolerance ---------------------------------------

TEST(CampaignJsonl, ReadsCompleteFiles)
{
    const std::string path = tmpPath("jsonl_complete.jsonl");
    writeFile(path, "{\"a\":1}\n{\"b\":2}\n");
    const auto file = readJsonl(path);
    ASSERT_TRUE(file.ok()) << file.status().message();
    EXPECT_EQ(file.value().records.size(), 2u);
    EXPECT_FALSE(file.value().truncated());
}

TEST(CampaignJsonl, ToleratesATruncatedFinalRecord)
{
    // The kill -9 signature: the writer died mid-append. Everything
    // before the torn line must survive, and the tear must be
    // reported, not silently eaten.
    const std::string path = tmpPath("jsonl_torn.jsonl");
    writeFile(path, "{\"a\":1}\n{\"b\":2}\n{\"c\":");
    const auto file = readJsonl(path);
    ASSERT_TRUE(file.ok()) << file.status().message();
    EXPECT_EQ(file.value().records.size(), 2u);
    EXPECT_TRUE(file.value().truncated());
    EXPECT_NE(file.value().truncatedTail.find("truncated"),
              std::string::npos);
}

TEST(CampaignJsonl, MalformedMiddleLineIsCorruptionNotTruncation)
{
    const std::string path = tmpPath("jsonl_corrupt.jsonl");
    writeFile(path, "{\"a\":1}\nnot json at all\n{\"b\":2}\n");
    const auto file = readJsonl(path);
    ASSERT_FALSE(file.ok());
    EXPECT_NE(file.status().message().find("malformed"),
              std::string::npos);
}

TEST(CampaignJsonl, MissingFileIsAnError)
{
    const auto file = readJsonl(tmpPath("jsonl_no_such_file.jsonl"));
    EXPECT_FALSE(file.ok());
}

TEST(CampaignJsonl, WriterFlushesPerRecord)
{
    // The record must be on disk before append() returns — read the
    // file back while the writer is still open.
    const std::string path = tmpPath("jsonl_flush.jsonl");
    auto writer = JsonlWriter::open(path, JsonlWriter::Mode::Truncate);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer.value().append("{\"x\":1}").ok());
    EXPECT_EQ(readFile(path), "{\"x\":1}\n");
    ASSERT_TRUE(writer.value().append("{\"y\":2}").ok());
    EXPECT_EQ(readFile(path), "{\"x\":1}\n{\"y\":2}\n");
    EXPECT_EQ(writer.value().appended(), 2u);
}

// ---- failure classification and retry policy --------------------------

TEST(CampaignRetry, TransientVersusPersistentSplit)
{
    EXPECT_TRUE(isTransient(FailureClass::SpawnFailed));
    EXPECT_TRUE(isTransient(FailureClass::Crashed));
    EXPECT_TRUE(isTransient(FailureClass::TimedOut));
    EXPECT_FALSE(isTransient(FailureClass::None));
    EXPECT_FALSE(isTransient(FailureClass::NonzeroExit));
    EXPECT_FALSE(isTransient(FailureClass::BadPayload));
}

TEST(CampaignRetry, FailureClassNamesRoundTrip)
{
    for (const FailureClass c :
         {FailureClass::None, FailureClass::SpawnFailed,
          FailureClass::Crashed, FailureClass::TimedOut,
          FailureClass::NonzeroExit, FailureClass::BadPayload}) {
        const auto parsed = parseFailureClass(failureClassName(c));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), c);
    }
    EXPECT_FALSE(parseFailureClass("flaky").ok());
}

TEST(CampaignRetry, BackoffIsBoundedExponential)
{
    RetryPolicy policy; // base 200 ms, cap 5000 ms
    EXPECT_EQ(policy.backoffMsForRetry(0), 0u);
    EXPECT_EQ(policy.backoffMsForRetry(1), 200u);
    EXPECT_EQ(policy.backoffMsForRetry(2), 400u);
    EXPECT_EQ(policy.backoffMsForRetry(5), 3'200u);
    EXPECT_EQ(policy.backoffMsForRetry(6), 5'000u);  // capped
    EXPECT_EQ(policy.backoffMsForRetry(40), 5'000u); // shift-safe
}

TEST(CampaignRetry, ParseRetriesValidates)
{
    EXPECT_EQ(parseRetries("0").value(), 0u);
    EXPECT_EQ(parseRetries("10").value(), 10u);
    EXPECT_FALSE(parseRetries("nope").ok());
    EXPECT_FALSE(parseRetries("-1").ok());
    const auto over = parseRetries("99");
    ASSERT_FALSE(over.ok());
    EXPECT_NE(over.status().message().find("cap"), std::string::npos);
}

TEST(ParseJobs, AcceptsCountsUpToFourTimesHardwareConcurrency)
{
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const auto one = parseJobs("1");
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one.value(), 1u);
    const auto cap = parseJobs(std::to_string(4 * hw));
    ASSERT_TRUE(cap.ok());
    EXPECT_EQ(cap.value(), 4 * hw);
}

TEST(ParseJobs, RejectsZeroGarbageAndOversizedCounts)
{
    EXPECT_FALSE(parseJobs("0").ok());
    EXPECT_FALSE(parseJobs("").ok());
    EXPECT_FALSE(parseJobs("abc").ok());
    EXPECT_FALSE(parseJobs("4x").ok());
    EXPECT_FALSE(parseJobs("-2").ok());
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_FALSE(parseJobs(std::to_string(4 * hw + 1)).ok());
}

// ---- checkpoint journal -----------------------------------------------

TEST(CampaignJournal, CreateAppendLoadRoundTrip)
{
    const std::string path = tmpPath("journal_roundtrip.jsonl");
    {
        auto journal = CheckpointJournal::create(path, "fp-1");
        ASSERT_TRUE(journal.ok()) << journal.status().message();
        JournalEntry a{"mcf:THP", {}};
        a.outcome.payload = "OK\nline two\n"; // newlines must survive JSON
        ASSERT_TRUE(journal.value().append(a).ok());
        JournalEntry b{"mcf:RMM", {}};
        b.outcome.failure = FailureClass::SpawnFailed;
        b.outcome.termSignal = 9;
        b.outcome.exitCode = 3;
        b.outcome.attempts = 3;
        b.outcome.quarantined = true;
        b.outcome.spawnError =
            "fork() failed: Resource temporarily unavailable";
        ASSERT_TRUE(journal.value().append(b).ok());
        EXPECT_EQ(journal.value().appended(), 2u);
    }
    CheckpointJournal::Recovered recovered;
    auto loaded = CheckpointJournal::load(path, "fp-1", recovered);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    ASSERT_EQ(recovered.entries.size(), 2u);
    EXPECT_EQ(recovered.entries[0].key, "mcf:THP");
    EXPECT_EQ(recovered.entries[0].outcome.failure, FailureClass::None);
    EXPECT_EQ(recovered.entries[0].outcome.payload, "OK\nline two\n");
    const TaskOutcome &b = recovered.entries[1].outcome;
    EXPECT_EQ(b.failure, FailureClass::SpawnFailed);
    EXPECT_EQ(b.termSignal, 9);
    EXPECT_EQ(b.exitCode, 3);
    EXPECT_EQ(b.attempts, 3u);
    EXPECT_TRUE(b.quarantined);
    EXPECT_EQ(b.spawnError,
              "fork() failed: Resource temporarily unavailable");
    EXPECT_TRUE(recovered.truncatedTail.empty());
}

TEST(CampaignJournal, DuplicateKeysResolveLastWins)
{
    const std::string path = tmpPath("journal_dedup.jsonl");
    {
        auto journal = CheckpointJournal::create(path, "fp");
        ASSERT_TRUE(journal.ok());
        JournalEntry e{"cell", {}};
        e.outcome.failure = FailureClass::TimedOut;
        ASSERT_TRUE(journal.value().append(e).ok());
        e.outcome.failure = FailureClass::None;
        e.outcome.attempts = 2;
        ASSERT_TRUE(journal.value().append(e).ok());
    }
    CheckpointJournal::Recovered recovered;
    auto loaded = CheckpointJournal::load(path, "fp", recovered);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(recovered.entries.size(), 1u);
    EXPECT_EQ(recovered.entries[0].outcome.failure, FailureClass::None);
    EXPECT_EQ(recovered.entries[0].outcome.attempts, 2u);
}

TEST(CampaignJournal, FingerprintMismatchIsAnError)
{
    const std::string path = tmpPath("journal_fp.jsonl");
    {
        auto journal = CheckpointJournal::create(path, "grid-A");
        ASSERT_TRUE(journal.ok());
    }
    CheckpointJournal::Recovered recovered;
    const auto loaded =
        CheckpointJournal::load(path, "grid-B", recovered);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("different campaign"),
              std::string::npos);
}

TEST(CampaignJournal, TruncatedTailIsDroppedAndCompactedAway)
{
    const std::string path = tmpPath("journal_torn.jsonl");
    {
        auto journal = CheckpointJournal::create(path, "fp");
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(journal.value().append({"survivor", {}}).ok());
    }
    // Simulate the writer dying mid-append.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"schema\":\"eat.campaign.journal\",\"v\":2,\"kind\"";
    }
    CheckpointJournal::Recovered recovered;
    auto loaded = CheckpointJournal::load(path, "fp", recovered);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    ASSERT_EQ(recovered.entries.size(), 1u);
    EXPECT_EQ(recovered.entries[0].key, "survivor");
    EXPECT_FALSE(recovered.truncatedTail.empty());

    // Compaction healed the file: end-to-end parseable again, meta
    // record plus the surviving cell.
    const auto reread = readJsonl(path);
    ASSERT_TRUE(reread.ok()) << reread.status().message();
    EXPECT_FALSE(reread.value().truncated());
    EXPECT_EQ(reread.value().records.size(), 2u);
}

TEST(CampaignJournal, AnOlderVersionIsRefused)
{
    // A v1 journal recorded the pool's task state, not the failure
    // class; resuming from it is refused, naming the journal.
    const std::string path = tmpPath("journal_v1.jsonl");
    writeFile(path,
              "{\"schema\":\"eat.campaign.journal\",\"v\":1,"
              "\"kind\":\"meta\",\"fingerprint\":\"fp\"}\n"
              "{\"schema\":\"eat.campaign.journal\",\"v\":1,"
              "\"kind\":\"cell\",\"key\":\"a\",\"state\":\"done\","
              "\"exit\":0,\"signal\":0,\"attempts\":1,"
              "\"quarantined\":false,\"error\":\"\",\"payload\":\"x\"}\n");
    CheckpointJournal::Recovered recovered;
    const auto loaded = CheckpointJournal::load(path, "fp", recovered);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().message(),
              "checkpoint journal " + path + " is not version 2");
    EXPECT_TRUE(recovered.entries.empty());
}

TEST(CampaignJournal, LoadOfAMissingJournalDegradesToCreate)
{
    const std::string path = tmpPath("journal_missing.jsonl");
    CheckpointJournal::Recovered recovered;
    auto loaded = CheckpointJournal::load(path, "fp", recovered);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_TRUE(recovered.entries.empty());
    EXPECT_TRUE(fileExists(path)); // meta record written
}

// ---- the engine: retry, quarantine, replay ----------------------------

TEST(CampaignEngine, TransientFailureRetriesThenSucceeds)
{
    // First attempt: leave a marker and die on a signal. Second
    // attempt sees the marker and succeeds — exactly the shape of a
    // transient fork-pressure or OOM-kill failure.
    const std::string marker = tmpPath("engine_retry_marker");

    std::vector<EngineTask> tasks;
    tasks.push_back({"flaky", [marker]() -> std::string {
        if (!fileExists(marker)) {
            std::ofstream touch(marker);
            touch << "x";
            touch.flush();
            ::raise(SIGKILL);
        }
        return "recovered";
    }});

    EngineOptions options;
    options.jobs = 1;
    options.retry.maxRetries = 2;
    options.retry.backoffBaseMs = 1; // keep the test fast

    std::vector<TaskOutcome> outcomes;
    std::ostringstream log;
    const auto run = runEngine(
        options, tasks,
        [&outcomes](std::size_t, const TaskOutcome &outcome,
                    std::size_t) {
            outcomes.push_back(outcome);
            return true;
        },
        log);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].failure, FailureClass::None);
    EXPECT_EQ(outcomes[0].payload, "recovered");
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_EQ(run.value().retries, 1u);
    EXPECT_EQ(run.value().executed, 1u);
    EXPECT_NE(log.str().find("transient"), std::string::npos);
}

TEST(CampaignEngine, ExhaustedRetriesQuarantineWithoutKillingTheSweep)
{
    const std::string journalPath = tmpPath("engine_quarantine.jsonl");

    std::vector<EngineTask> tasks;
    tasks.push_back({"poison", []() -> std::string {
        ::raise(SIGKILL);
        return "unreachable";
    }});
    tasks.push_back({"healthy", [] { return std::string("fine"); }});

    EngineOptions options;
    options.jobs = 1;
    options.retry.maxRetries = 1;
    options.retry.backoffBaseMs = 1;
    options.journalPath = journalPath;

    std::vector<TaskOutcome> outcomes(tasks.size());
    std::ostringstream log;
    const auto run = runEngine(
        options, tasks,
        [&outcomes](std::size_t index, const TaskOutcome &outcome,
                    std::size_t) {
            outcomes[index] = outcome;
            return true;
        },
        log);
    ASSERT_TRUE(run.ok()) << run.status().message();

    EXPECT_EQ(outcomes[0].failure, FailureClass::Crashed);
    EXPECT_EQ(outcomes[0].termSignal, SIGKILL);
    EXPECT_EQ(outcomes[0].attempts, 2u); // budget 1 = two attempts
    EXPECT_TRUE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[1].failure, FailureClass::None);
    EXPECT_EQ(outcomes[1].payload, "fine");
    EXPECT_EQ(run.value().quarantined, 1u);
    EXPECT_EQ(run.value().retries, 1u);

    const auto quarantine = readJsonl(journalPath + ".quarantine");
    ASSERT_TRUE(quarantine.ok()) << quarantine.status().message();
    ASSERT_EQ(quarantine.value().records.size(), 1u);
    const auto *key = quarantine.value().records[0].find("key");
    ASSERT_NE(key, nullptr);
    EXPECT_EQ(key->string, "poison");
    const auto *cls = quarantine.value().records[0].find("class");
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(cls->string, "signal");
}

TEST(CampaignEngine, PersistentFailuresAreNotRetried)
{
    const std::string journalPath = tmpPath("engine_badpayload.jsonl");

    std::vector<EngineTask> tasks;
    tasks.push_back({"garbled", [] { return std::string("junk"); }});

    EngineOptions options;
    options.jobs = 1;
    options.retry.maxRetries = 3; // must NOT be spent on a bad payload
    options.journalPath = journalPath;
    options.payloadOk = [](const std::string &) { return false; };

    std::vector<TaskOutcome> outcomes;
    std::ostringstream log;
    const auto run = runEngine(
        options, tasks,
        [&outcomes](std::size_t, const TaskOutcome &outcome,
                    std::size_t) {
            outcomes.push_back(outcome);
            return true;
        },
        log);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].failure, FailureClass::BadPayload);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_TRUE(outcomes[0].quarantined);
    EXPECT_EQ(run.value().retries, 0u);
}

TEST(CampaignEngine, CheckpointReplayDoesNotReExecute)
{
    const std::string journalPath = tmpPath("engine_replay.jsonl");

    EngineOptions options;
    options.jobs = 2;
    options.journalPath = journalPath;
    options.fingerprint = "replay-test";

    std::vector<EngineTask> tasks;
    tasks.push_back({"a", [] { return std::string("alpha"); }});
    tasks.push_back({"b", [] { return std::string("beta"); }});
    std::ostringstream log;
    const auto first = runEngine(
        options, tasks,
        [](std::size_t, const TaskOutcome &, std::size_t) {
            return true;
        },
        log);
    ASSERT_TRUE(first.ok()) << first.status().message();
    EXPECT_EQ(first.value().executed, 2u);

    // Second run: same keys, but the task bodies would leave evidence
    // if they ran. They must not — the journal satisfies them.
    const std::string sentinel = tmpPath("engine_replay_sentinel");
    std::vector<EngineTask> rerun;
    for (const auto &key : {"a", "b"}) {
        rerun.push_back({key, [sentinel]() -> std::string {
            std::ofstream touch(sentinel);
            touch << "ran";
            touch.flush();
            return "re-executed";
        }});
    }
    options.resume = true;
    std::vector<TaskOutcome> outcomes(rerun.size());
    const auto second = runEngine(
        options, rerun,
        [&outcomes](std::size_t index, const TaskOutcome &outcome,
                    std::size_t) {
            outcomes[index] = outcome;
            return true;
        },
        log);
    ASSERT_TRUE(second.ok()) << second.status().message();
    EXPECT_EQ(second.value().replayed, 2u);
    EXPECT_EQ(second.value().executed, 0u);
    EXPECT_TRUE(outcomes[0].fromCheckpoint);
    EXPECT_EQ(outcomes[0].payload, "alpha");
    EXPECT_EQ(outcomes[1].payload, "beta");
    EXPECT_FALSE(fileExists(sentinel));
}

TEST(CampaignEngine, ResumeUnderADifferentFingerprintFails)
{
    const std::string journalPath = tmpPath("engine_fp.jsonl");

    EngineOptions options;
    options.journalPath = journalPath;
    options.fingerprint = "campaign-one";
    std::vector<EngineTask> tasks;
    tasks.push_back({"a", [] { return std::string("x"); }});
    std::ostringstream log;
    ASSERT_TRUE(runEngine(options, tasks,
                          [](std::size_t, const TaskOutcome &,
                             std::size_t) { return true; },
                          log)
                    .ok());

    options.fingerprint = "campaign-two";
    options.resume = true;
    const auto resumed = runEngine(
        options, tasks,
        [](std::size_t, const TaskOutcome &, std::size_t) {
            return true;
        },
        log);
    ASSERT_FALSE(resumed.ok());
    EXPECT_NE(resumed.status().message().find("different campaign"),
              std::string::npos);
}

TEST(CampaignEngine, ClassifiesEveryWayAChildCanEnd)
{
    // One real child per class the pool and the engine can give a task
    // that ran: all five in flight at once under a 1 s watchdog.
    std::vector<EngineTask> tasks;
    tasks.push_back({"clean", [] { return std::string("good"); }});
    tasks.push_back({"rejected", [] { return std::string("bad"); }});
    tasks.push_back({"throws", []() -> std::string {
        throw std::runtime_error("task threw");
    }});
    tasks.push_back({"killed", []() -> std::string {
        ::raise(SIGKILL);
        return "unreachable";
    }});
    tasks.push_back({"hangs", []() -> std::string {
        ::sleep(60);
        return "unreachable";
    }});

    EngineOptions options;
    options.jobs = 5;
    options.timeoutSeconds = 1;
    options.payloadOk = [](const std::string &payload) {
        return payload == "good";
    };

    std::vector<TaskOutcome> outcomes(tasks.size());
    std::ostringstream log;
    const auto run = runEngine(
        options, tasks,
        [&outcomes](std::size_t index, const TaskOutcome &outcome,
                    std::size_t) {
            outcomes[index] = outcome;
            return true;
        },
        log);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run.value().executed, 5u);
    EXPECT_EQ(run.value().retries, 0u);

    EXPECT_EQ(outcomes[0].failure, FailureClass::None);
    EXPECT_EQ(outcomes[0].payload, "good");
    EXPECT_EQ(outcomes[1].failure, FailureClass::BadPayload);
    EXPECT_EQ(outcomes[1].payload, "bad");
    EXPECT_EQ(outcomes[2].failure, FailureClass::NonzeroExit);
    EXPECT_EQ(outcomes[2].exitCode, 125);
    EXPECT_EQ(outcomes[3].failure, FailureClass::Crashed);
    EXPECT_EQ(outcomes[3].termSignal, SIGKILL);
    EXPECT_EQ(outcomes[4].failure, FailureClass::TimedOut);
    EXPECT_EQ(describeFailure(outcomes[4], options.timeoutSeconds),
              "killed by the 1s watchdog");
    for (const auto &outcome : outcomes)
        EXPECT_EQ(outcome.attempts, 1u);
}

TEST(CampaignEngine, AFailedPipeIsASpawnFailure)
{
    // pipe() needs two free descriptors. A test child that caps its own
    // descriptor limit at its lowest free descriptor has none, so every
    // spawn fails with EMFILE before a task process exists. The child
    // reports what it saw as a bit mask in its exit status.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const int lowest = ::open("/dev/null", O_RDONLY);
        if (lowest < 0)
            ::_exit(64);
        ::close(lowest);
        struct rlimit limit = {};
        ::getrlimit(RLIMIT_NOFILE, &limit);
        limit.rlim_cur = static_cast<rlim_t>(lowest);
        if (::setrlimit(RLIMIT_NOFILE, &limit) != 0)
            ::_exit(65);

        std::vector<EngineTask> tasks;
        tasks.push_back({"unspawnable", [] { return std::string("x"); }});
        EngineOptions options;
        options.jobs = 1;
        options.retry.maxRetries = 1;
        options.retry.backoffBaseMs = 1;
        std::size_t calls = 0;
        TaskOutcome seen;
        std::ostringstream log;
        const auto run = runEngine(
            options, tasks,
            [&](std::size_t, const TaskOutcome &outcome, std::size_t) {
                seen = outcome;
                ++calls;
                return true;
            },
            log);
        int bits = 0;
        if (!run.ok() || run.value().retries != 1)
            bits |= 1;
        if (calls != 1 || seen.failure != FailureClass::SpawnFailed)
            bits |= 2;
        if (seen.spawnError.rfind("pipe() failed", 0) != 0)
            bits |= 4;
        if (seen.attempts != 2)
            bits |= 8;
        ::_exit(bits);
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "64/65: the descriptor cap could not be set; otherwise 1: "
           "not one retry, 2: not one SpawnFailed outcome, 4: spawn "
           "error does not start \"pipe() failed\", 8: not 2 attempts";
}

// ---- batch runner on the engine: retry + quarantine -------------------

TEST(CampaignBatch, CrashingCellIsQuarantinedAfterItsRetryBudget)
{
    const std::string csv = tmpPath("campaign_batch_crash.csv");
    const std::string journal = csv + ".journal";
    const std::string quarantine = journal + ".quarantine";

    sim::BatchOptions options;
    options.workloadNames = {"mcf"};
    options.orgs = {core::MmuOrg::Thp, core::MmuOrg::Rmm};
    options.spec.fastForward = 10'000;
    options.spec.simInstructions = 100'000;
    options.outPath = csv;
    options.failCell = "mcf:RMM:crash";
    options.engine.retry.maxRetries = 1;

    std::ostringstream log;
    const auto r = sim::runBatch(options, log);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().ok, 1u);      // the sibling cell completed
    EXPECT_EQ(r.value().failed, 1u);  // the poisoned cell is data
    EXPECT_EQ(r.value().engine.quarantined, 1u);
    EXPECT_EQ(r.value().engine.retries, 1u);

    // The row carries the real failure class and the attempt count.
    const std::string content = readFile(csv);
    EXPECT_NE(content.find("child killed by signal 9"),
              std::string::npos)
        << content;
    EXPECT_NE(content.find("after 2 attempts"), std::string::npos)
        << content;

    const auto q = readJsonl(quarantine);
    ASSERT_TRUE(q.ok()) << q.status().message();
    ASSERT_EQ(q.value().records.size(), 1u);
    const auto *key = q.value().records[0].find("key");
    ASSERT_NE(key, nullptr);
    EXPECT_EQ(key->string, "mcf:RMM");
}

// ---- binary-level crash-resume byte-identity --------------------------

struct CmdResult
{
    int exitCode = -1;
    std::string output;
};

CmdResult
runCmd(const std::string &cmd)
{
    CmdResult result;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return result;
    }
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        result.output.append(buffer, n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        result.exitCode = 128 + WTERMSIG(status);
    return result;
}

const std::string kEatbatch = EAT_EATBATCH_PATH;
const std::string kEatfuzz = EAT_EATFUZZ_PATH;

/** A sweep CSV with the wall-clock columns blanked. */
std::string
normalizedCsv(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing CSV: " << path;
    const auto &timing = sim::batchTimingColumns();
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::string cell;
        std::istringstream ls(line);
        while (std::getline(ls, cell, ','))
            cells.push_back(cell);
        for (const std::size_t col : timing) {
            if (col < cells.size())
                cells[col] = "-";
        }
        for (std::size_t i = 0; i < cells.size(); ++i)
            out << (i ? "," : "") << cells[i];
        out << "\n";
    }
    return out.str();
}

class CrashResume : public ::testing::TestWithParam<int>
{
};

TEST_P(CrashResume, EatbatchKillNineThenResumeIsByteIdentical)
{
    const int jobs = GetParam();
    const std::string dir = test::scratchDir();
    const std::string ref = dir + "cr_batch_ref_" +
                            std::to_string(jobs) + ".csv";
    const std::string out = dir + "cr_batch_out_" +
                            std::to_string(jobs) + ".csv";

    const std::string grid =
        " --workloads=mcf,astar --orgs=THP,RMM"
        " --instructions=100000 --fast-forward=10000 -j" +
        std::to_string(jobs);

    const auto reference =
        runCmd(kEatbatch + " --out=" + ref + grid);
    ASSERT_EQ(reference.exitCode, 0) << reference.output;

    // kill -9 the driver after two checkpointed cells (of four): a
    // real parent death, no unwinding, mid-campaign.
    const auto killed = runCmd(kEatbatch + " --out=" + out + grid +
                               " --kill-after=2");
    ASSERT_EQ(killed.exitCode, 128 + SIGKILL) << killed.output;

    const auto resumed =
        runCmd(kEatbatch + " --out=" + out + grid + " --resume");
    ASSERT_EQ(resumed.exitCode, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resumed"), std::string::npos)
        << resumed.output;

    EXPECT_EQ(normalizedCsv(out), normalizedCsv(ref));
}

TEST_P(CrashResume, EatfuzzKillNineThenResumeIsByteIdentical)
{
    const int jobs = GetParam();
    const std::string dir = test::scratchDir();
    const std::string suffix = std::to_string(jobs) + ".jsonl";
    const std::string ref = dir + "cr_fuzz_ref_" + suffix;
    const std::string out = dir + "cr_fuzz_out_" + suffix;
    const std::string ckpt = dir + "cr_fuzz_ckpt_" + suffix;

    const std::string campaign =
        " --runs=10 --seed=42 --no-shrink -j" + std::to_string(jobs);

    const auto reference =
        runCmd(kEatfuzz + campaign + " --verdicts=" + ref);
    ASSERT_EQ(reference.exitCode, 0) << reference.output;

    const auto killed =
        runCmd(kEatfuzz + campaign + " --verdicts=" + out +
               " --checkpoint=" + ckpt + " --kill-after=4");
    ASSERT_EQ(killed.exitCode, 128 + SIGKILL) << killed.output;

    const auto resumed =
        runCmd(kEatfuzz + campaign + " --verdicts=" + out +
               " --checkpoint=" + ckpt + " --resume");
    ASSERT_EQ(resumed.exitCode, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("replayed from checkpoint"),
              std::string::npos)
        << resumed.output;

    // Verdicts have no wall-clock columns: exact equality.
    EXPECT_EQ(readFile(out), readFile(ref));
}

INSTANTIATE_TEST_SUITE_P(Jobs, CrashResume, ::testing::Values(1, 4));

TEST(CrashResumeCli, ResumingADifferentCampaignFails)
{
    const std::string dir = test::scratchDir();
    const std::string verdicts = dir + "cr_fp_verdicts.jsonl";
    const std::string ckpt = dir + "cr_fp_ckpt.jsonl";

    const auto first = runCmd(kEatfuzz + " --runs=2 --seed=42 -j1" +
                              " --verdicts=" + verdicts +
                              " --checkpoint=" + ckpt);
    ASSERT_EQ(first.exitCode, 0) << first.output;

    // Same journal, different campaign seed: the fingerprint guard
    // must refuse rather than silently merge foreign results.
    const auto wrong = runCmd(kEatfuzz + " --runs=2 --seed=43 -j1" +
                              " --verdicts=" + verdicts +
                              " --checkpoint=" + ckpt + " --resume");
    EXPECT_EQ(wrong.exitCode, 1) << wrong.output;
    EXPECT_NE(wrong.output.find("different campaign"),
              std::string::npos)
        << wrong.output;
}

// ---- graceful shutdown ------------------------------------------------

TEST(GracefulShutdown, SigtermStopsDispatchAndLeavesResumableState)
{
    const std::string dir = test::scratchDir();
    const std::string ref = dir + "gs_ref.csv";
    const std::string out = dir + "gs_out.csv";

    // Big enough that four cells take a while at -j1, so the SIGTERM
    // lands mid-sweep.
    const std::vector<std::string> args = {
        "--out=" + out,
        "--workloads=mcf,astar",
        "--orgs=THP,RMM",
        "--instructions=3000000",
        "--fast-forward=10000",
        "-j1",
    };

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(kEatbatch.c_str()));
        for (const auto &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        // Quiet: the parent only cares about the exit status.
        std::freopen("/dev/null", "w", stdout);
        execv(kEatbatch.c_str(), argv.data());
        _exit(127);
    }

    // Wait for the first checkpointed cell (meta line + 1), then pull
    // the plug politely.
    bool sawCell = false;
    for (int spin = 0; spin < 3000; ++spin) {
        std::ifstream in(out + ".journal");
        std::string line;
        std::size_t lines = 0;
        while (std::getline(in, line))
            ++lines;
        if (lines >= 2) {
            sawCell = true;
            break;
        }
        ::usleep(10'000);
    }
    ASSERT_TRUE(sawCell) << "no cell checkpointed within 30s";
    ASSERT_EQ(::kill(pid, SIGTERM), 0);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "driver must exit cleanly, not die on the signal";
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);

    // The resumed run completes the grid and matches an uninterrupted
    // reference byte-for-byte outside the wall-clock columns.
    const std::string grid =
        " --workloads=mcf,astar --orgs=THP,RMM"
        " --instructions=3000000 --fast-forward=10000 -j1";
    const auto resumed =
        runCmd(kEatbatch + " --out=" + out + grid + " --resume");
    ASSERT_EQ(resumed.exitCode, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resumed"), std::string::npos);

    const auto reference = runCmd(kEatbatch + " --out=" + ref + grid);
    ASSERT_EQ(reference.exitCode, 0) << reference.output;
    EXPECT_EQ(normalizedCsv(out), normalizedCsv(ref));
}

} // namespace
} // namespace eat::campaign
