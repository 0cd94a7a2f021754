#include "campaign/engine.hh"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <thread>
#include <unordered_map>

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

std::string
journalStateName(sim::ProcessPool::TaskState state)
{
    using TaskState = sim::ProcessPool::TaskState;
    switch (state) {
      case TaskState::Done: return "done";
      case TaskState::Crashed: return "signal";
      case TaskState::TimedOut: return "timeout";
      case TaskState::SpawnFailed: return "spawn-failed";
    }
    return "unknown";
}

Result<sim::ProcessPool::TaskState>
parseJournalState(const std::string &name)
{
    using TaskState = sim::ProcessPool::TaskState;
    for (const TaskState state :
         {TaskState::Done, TaskState::Crashed, TaskState::TimedOut,
          TaskState::SpawnFailed}) {
        if (name == journalStateName(state))
            return state;
    }
    return Status::error("unknown journal state '", name, "'");
}

JournalEntry
toJournalEntry(const std::string &key, const TaskOutcome &outcome)
{
    JournalEntry entry;
    entry.key = key;
    entry.state = journalStateName(outcome.state);
    entry.exitCode = outcome.exitCode;
    entry.termSignal = outcome.termSignal;
    entry.attempts = outcome.attempts;
    entry.quarantined = outcome.quarantined;
    entry.error = outcome.spawnError;
    entry.payload = outcome.payload;
    return entry;
}

Result<TaskOutcome>
fromJournalEntry(const JournalEntry &entry,
                 const EngineOptions &options)
{
    const auto state = parseJournalState(entry.state);
    if (!state.ok())
        return state.status();
    TaskOutcome outcome;
    outcome.state = state.value();
    outcome.payload = entry.payload;
    outcome.termSignal = entry.termSignal;
    outcome.exitCode = entry.exitCode;
    outcome.spawnError = entry.error;
    outcome.attempts = entry.attempts;
    outcome.quarantined = entry.quarantined;
    outcome.fromCheckpoint = true;
    const bool payloadGood =
        !options.payloadOk || options.payloadOk(outcome.payload);
    outcome.failure = classify(
        sim::ProcessPool::TaskResult{outcome.state, outcome.payload,
                                     outcome.termSignal, outcome.exitCode,
                                     outcome.spawnError},
        payloadGood);
    return outcome;
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
    std::unordered_map<std::string, JournalEntry> recovered;
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
                recovered.emplace(entry.key, std::move(entry));
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
    if (!options.quarantinePath.empty() && !options.resume)
        std::remove(options.quarantinePath.c_str());
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
                outcome.failure != FailureClass::None &&
                !options.quarantinePath.empty();
        }
        if (outcome.quarantined && !outcome.fromCheckpoint) {
            if (!quarantine.isOpen()) {
                auto opened = JsonlWriter::open(
                    options.quarantinePath,
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
            if (Status s = journal.append(
                    toJournalEntry(tasks[index].key, outcome));
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
            auto outcome = fromJournalEntry(it->second, options);
            if (!outcome.ok()) {
                return Status::error("checkpoint journal ",
                                     options.journalPath, ": ",
                                     outcome.status().message());
            }
            if (acceptCheckpoint(outcome.value())) {
                ++summary.replayed;
                if (!settle(i, outcome.value(), 0)) {
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

        std::vector<sim::ProcessPool::TaskFn> fns;
        fns.reserve(pending.size());
        for (const std::size_t index : pending)
            fns.push_back(tasks[index].fn);

        std::vector<std::size_t> retryNext;
        sim::ProcessPool::Config poolConfig;
        poolConfig.jobs = effectiveJobs(options.jobs);
        poolConfig.timeoutSeconds = options.timeoutSeconds;
        poolConfig.stopRequested = [&guard] {
            return guard.signaled() != 0;
        };
        sim::ProcessPool::run(
            poolConfig, fns,
            [&](std::size_t poolIndex,
                const sim::ProcessPool::TaskResult &result,
                std::size_t inFlight) {
                const std::size_t index = pending[poolIndex];
                const bool payloadGood =
                    result.state == sim::ProcessPool::TaskState::Done &&
                    result.exitCode == 0 &&
                    (!options.payloadOk ||
                     options.payloadOk(result.payload));
                const FailureClass failure =
                    classify(result, payloadGood);
                if (isTransient(failure) &&
                    round < options.retry.maxRetries) {
                    log << "transient: " << tasks[index].key << ": "
                        << failureClassName(failure) << " (attempt "
                        << round + 1 << "), will retry\n";
                    retryNext.push_back(index);
                    ++summary.retries;
                    return true;
                }
                TaskOutcome outcome;
                outcome.state = result.state;
                outcome.failure = failure;
                outcome.payload = result.payload;
                outcome.termSignal = result.termSignal;
                outcome.exitCode = result.exitCode;
                outcome.spawnError = result.spawnError;
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
