#include "campaign/engine.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <limits>
#include <optional>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "base/parse.hh"
#include "campaign/journal.hh"

namespace eat::campaign
{

namespace
{

// ---- graceful shutdown ------------------------------------------------
//
// SIGINT/SIGTERM set a flag; the pool's sigtimedwait is interrupted
// (the handlers are installed without SA_RESTART), the engine notices
// via the pool's stop hook, kills and reaps the in-flight children,
// and returns with the journal flushed. async-signal-safety: the
// handler only stores to a volatile sig_atomic_t.

volatile std::sig_atomic_t g_shutdownSignal = 0;

void
onShutdownSignal(int sig)
{
    g_shutdownSignal = sig;
}

/** Installs the shutdown handlers for the engine's lifetime. */
class ShutdownGuard
{
  public:
    ShutdownGuard()
    {
        g_shutdownSignal = 0;
        struct sigaction action = {};
        action.sa_handler = onShutdownSignal;
        sigemptyset(&action.sa_mask);
        action.sa_flags = 0; // no SA_RESTART: must interrupt waits
        ::sigaction(SIGINT, &action, &previousInt_);
        ::sigaction(SIGTERM, &action, &previousTerm_);
    }

    ~ShutdownGuard()
    {
        ::sigaction(SIGINT, &previousInt_, nullptr);
        ::sigaction(SIGTERM, &previousTerm_, nullptr);
    }

    ShutdownGuard(const ShutdownGuard &) = delete;
    ShutdownGuard &operator=(const ShutdownGuard &) = delete;

    int signaled() const { return g_shutdownSignal; }

  private:
    struct sigaction previousInt_ = {};
    struct sigaction previousTerm_ = {};
};

/** Sleep @p ms, waking early if a shutdown signal arrives. */
void
interruptibleSleep(unsigned ms, const ShutdownGuard &guard)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(ms);
    while (!guard.signaled() &&
           std::chrono::steady_clock::now() < deadline) {
        struct timespec nap = {0, 10'000'000}; // 10 ms
        ::nanosleep(&nap, nullptr);
    }
}

} // namespace

unsigned
effectiveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

Result<unsigned>
parseJobs(std::string_view text)
{
    const auto parsed = parseU64(text);
    if (!parsed.ok())
        return Status::error("jobs: ", parsed.status().message());
    const std::uint64_t v = parsed.value();
    if (v == 0)
        return Status::error("jobs: must be at least 1");
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const std::uint64_t cap = 4ull * hw;
    if (v > cap) {
        return Status::error("jobs: ", v, " exceeds 4 x hardware "
                             "concurrency (cap ", cap, "); more children "
                             "than that only add scheduler churn");
    }
    return static_cast<unsigned>(v);
}

Result<bool>
takeEngineFlag(std::string_view arg, EngineOptions &options)
{
    // The text after @p prefix, or nothing when @p arg is another flag.
    const auto value =
        [arg](std::string_view prefix) -> std::optional<std::string_view> {
        if (!arg.starts_with(prefix))
            return std::nullopt;
        return arg.substr(prefix.size());
    };
    // A count that must fit the unsigned field it lands in.
    const auto count = [](std::string_view flag, std::string_view text,
                          unsigned &field) -> Result<bool> {
        const auto parsed = parseU64(text);
        if (!parsed.ok())
            return Status::error(flag, ": ", parsed.status().message());
        if (parsed.value() > std::numeric_limits<unsigned>::max())
            return Status::error(flag, ": ", parsed.value(),
                                 " is out of range");
        field = static_cast<unsigned>(parsed.value());
        return true;
    };

    if (arg == "--resume") {
        options.resume = true;
        return true;
    }
    if (const auto text = value("--timeout="))
        return count("--timeout", *text, options.timeoutSeconds);
    if (const auto text = value("--kill-after="))
        return count("--kill-after", *text, options.killAfterCheckpoints);
    if (const auto text = value("--retries=")) {
        const auto retries = parseRetries(*text);
        if (!retries.ok())
            return Status::error("--", retries.status().message());
        options.retry.maxRetries = retries.value();
        return true;
    }
    if (const auto text = value("--checkpoint=")) {
        if (text->empty())
            return Status::error("--checkpoint: path must not be empty");
        options.journalPath = std::string(*text);
        return true;
    }
    auto jobsText = value("--jobs=");
    if (!jobsText)
        jobsText = value("-j");
    if (!jobsText)
        return false;
    const auto jobs = parseJobs(*jobsText);
    if (!jobs.ok())
        return Status::error("--jobs: ", jobs.status().message());
    options.jobs = jobs.value();
    return true;
}

std::string
describeFailure(const TaskOutcome &outcome, unsigned timeoutSeconds)
{
    switch (outcome.failure) {
      case FailureClass::None:
        return "ok";
      case FailureClass::SpawnFailed:
        return outcome.spawnError.empty() ? "process spawn failed"
                                          : outcome.spawnError;
      case FailureClass::Crashed:
        return "child killed by signal " +
               std::to_string(outcome.termSignal);
      case FailureClass::TimedOut:
        return "killed by the " + std::to_string(timeoutSeconds) +
               "s watchdog";
      case FailureClass::NonzeroExit:
        return "child exited with status " +
               std::to_string(outcome.exitCode);
      case FailureClass::BadPayload:
        return "child payload rejected";
    }
    return "unknown failure";
}

Result<EngineSummary>
runEngine(const EngineOptions &options,
          const std::vector<EngineTask> &tasks, const OutcomeFn &onOutcome,
          std::ostream &log)
{
    if (options.resume && options.journalPath.empty())
        return Status::error("resume requested without a checkpoint "
                             "journal");

    EngineSummary summary;
    ShutdownGuard guard;

    // Open (or resume) the checkpoint journal.
    CheckpointJournal journal;
    bool journaling = !options.journalPath.empty();
    std::unordered_map<std::string, TaskOutcome> recovered;
    if (journaling) {
        if (options.resume) {
            CheckpointJournal::Recovered state;
            auto loaded = CheckpointJournal::load(
                options.journalPath, options.fingerprint, state);
            if (!loaded.ok())
                return loaded.status();
            journal = std::move(loaded.value());
            if (!state.truncatedTail.empty()) {
                log << "checkpoint: " << state.truncatedTail
                    << " (an in-flight record of the killed run)\n";
            }
            for (auto &entry : state.entries)
                recovered.emplace(entry.key, std::move(entry.outcome));
        } else {
            auto created = CheckpointJournal::create(options.journalPath,
                                                     options.fingerprint);
            if (!created.ok())
                return created.status();
            journal = std::move(created.value());
        }
    }

    // The quarantine file is created lazily on the first poisoned
    // cell; a stale one from a previous run must not linger and
    // masquerade as this run's.
    const std::string quarantinePath =
        journaling ? options.journalPath + ".quarantine" : "";
    if (journaling && !options.resume)
        std::remove(quarantinePath.c_str());
    JsonlWriter quarantine;

    const auto acceptCheckpoint =
        [&options](const TaskOutcome &outcome) {
            return options.acceptCheckpoint
                       ? options.acceptCheckpoint(outcome)
                       : outcome.failure == FailureClass::None;
        };

    // Settle one final outcome: journal it, quarantine it if poisoned,
    // then hand it to the caller. Returns false to abort the campaign.
    Status settleError;
    const auto settle = [&](std::size_t index,
                            TaskOutcome &outcome,
                            std::size_t inFlight) -> bool {
        // Replayed outcomes keep the quarantined flag they were
        // journaled with; their quarantine records (if any) are
        // already on disk from the original run.
        if (!outcome.fromCheckpoint) {
            outcome.quarantined =
                outcome.failure != FailureClass::None && journaling;
        }
        if (outcome.quarantined && !outcome.fromCheckpoint) {
            if (!quarantine.isOpen()) {
                auto opened = JsonlWriter::open(
                    quarantinePath,
                    options.resume ? JsonlWriter::Mode::Append
                                   : JsonlWriter::Mode::Truncate);
                if (!opened.ok()) {
                    settleError = opened.status();
                    return false;
                }
                quarantine = std::move(opened.value());
            }
            obs::JsonObject record;
            record.put("schema", kQuarantineSchema);
            record.put("v", kQuarantineVersion);
            record.put("key", tasks[index].key);
            record.put("class",
                       failureClassName(outcome.failure));
            record.put("error",
                       describeFailure(outcome, options.timeoutSeconds));
            record.put("attempts", outcome.attempts);
            record.put("exit", outcome.exitCode);
            record.put("signal", outcome.termSignal);
            record.put("payload", outcome.payload);
            if (Status s = quarantine.append(record.str()); !s.ok()) {
                settleError = s;
                return false;
            }
            ++summary.quarantined;
            log << "quarantine: " << tasks[index].key << ": "
                << failureClassName(outcome.failure) << " after "
                << outcome.attempts << " attempt(s): "
                << describeFailure(outcome, options.timeoutSeconds)
                << "\n";
        }
        if (journaling && !outcome.fromCheckpoint) {
            if (Status s = journal.append({tasks[index].key, outcome});
                !s.ok()) {
                settleError = s;
                return false;
            }
            if (options.killAfterCheckpoints != 0 &&
                journal.appended() >= options.killAfterCheckpoints) {
                // Crash-resume testing aid: die exactly like a kill -9
                // of the parent — no unwinding, no flushes beyond what
                // already hit the OS.
                ::raise(SIGKILL);
            }
        }
        if (!onOutcome(index, outcome, inFlight)) {
            summary.aborted = true;
            return false;
        }
        return true;
    };

    // Replay the journal first, in task order: resumed work reaches
    // the caller exactly as it would have during the original run.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto it = recovered.find(tasks[i].key);
        if (it != recovered.end()) {
            TaskOutcome &outcome = it->second;
            outcome.fromCheckpoint = true;
            if (acceptCheckpoint(outcome)) {
                ++summary.replayed;
                if (!settle(i, outcome, 0)) {
                    if (!settleError.ok())
                        return settleError;
                    return summary;
                }
                continue;
            }
        }
        pending.push_back(i);
    }

    // Dispatch in retry rounds: round r re-runs what failed
    // transiently in round r-1, after a bounded exponential backoff.
    unsigned round = 0;
    while (!pending.empty()) {
        if (guard.signaled())
            break;
        if (round > 0) {
            const unsigned delayMs =
                options.retry.backoffMsForRetry(round);
            log << "retry: " << pending.size() << " task(s), attempt "
                << round + 1 << "/" << options.retry.maxRetries + 1
                << " after " << delayMs << " ms backoff\n";
            interruptibleSleep(delayMs, guard);
            if (guard.signaled())
                break;
        }

        std::vector<TaskFn> fns;
        fns.reserve(pending.size());
        for (const std::size_t index : pending)
            fns.push_back(tasks[index].fn);

        std::vector<std::size_t> retryNext;
        runPool(
            effectiveJobs(options.jobs), options.timeoutSeconds,
            [&guard] { return guard.signaled() != 0; }, fns,
            [&](std::size_t poolIndex, TaskOutcome &outcome,
                std::size_t inFlight) {
                const std::size_t index = pending[poolIndex];
                if (outcome.failure == FailureClass::None &&
                    options.payloadOk && !options.payloadOk(outcome.payload))
                    outcome.failure = FailureClass::BadPayload;
                if (isTransient(outcome.failure) &&
                    round < options.retry.maxRetries) {
                    log << "transient: " << tasks[index].key << ": "
                        << failureClassName(outcome.failure)
                        << " (attempt " << round + 1
                        << "), will retry\n";
                    retryNext.push_back(index);
                    ++summary.retries;
                    return true;
                }
                outcome.attempts = round + 1;
                ++summary.executed;
                return settle(index, outcome, inFlight);
            });
        if (!settleError.ok())
            return settleError;
        if (summary.aborted)
            return summary;
        pending = std::move(retryNext);
        ++round;
    }

    if (guard.signaled()) {
        summary.interruptSignal = guard.signaled();
        log << "interrupted by signal " << summary.interruptSignal
            << ": dispatch stopped, children reaped, checkpoint "
            << (journaling ? "flushed — rerun with --resume\n"
                           : "disabled — progress lost\n");
    }
    return summary;
}

} // namespace eat::campaign
