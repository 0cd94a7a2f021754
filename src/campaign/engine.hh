/**
 * @file
 * The crash-resilient campaign engine.
 *
 * Every campaign-style driver in this repo (the eatbatch sweep runner,
 * the eatfuzz scenario campaign and corpus replay) runs on this engine,
 * which dispatches through the fork-per-task pool (campaign/pool.hh)
 * and makes long campaigns survive the machine:
 *
 *  - **journaled checkpoints**: every settled task is appended to a
 *    CheckpointJournal (flushed per record), so a kill -9 of the
 *    parent loses at most the cells in flight. On resume, journaled
 *    outcomes are replayed through the caller's callback — in task
 *    order, before any live dispatch — instead of re-executing, and
 *    the caller decides per entry whether to accept it (eatbatch
 *    re-runs failed cells; eatfuzz trusts any settled verdict).
 *  - **retry with backoff + quarantine**: transient failures (spawn
 *    failure, signal death, watchdog timeout) are retried up to the
 *    budget with bounded exponential backoff between rounds; whatever
 *    still fails — and every persistent failure — is quarantined into
 *    a poisoned-cell JSONL file with full diagnostics
 *    (<journalPath>.quarantine; none without a journal), and the
 *    campaign keeps going.
 *  - **graceful shutdown**: SIGINT/SIGTERM stop dispatch, kill and
 *    reap every in-flight child, leave the journal flushed, and
 *    return with the interrupting signal recorded, so the tool can
 *    exit with resumable state instead of dying mid-write.
 *
 * Determinism contract: task outcomes are independent of the job
 * count, of retries of *other* tasks, and of kill/resume cycles — the
 * callback sees each task exactly once with its final outcome, so a
 * resumed campaign's merged output is byte-identical (modulo wall
 * clock) to an uninterrupted one.
 */

#ifndef EAT_CAMPAIGN_ENGINE_HH
#define EAT_CAMPAIGN_ENGINE_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hh"
#include "campaign/pool.hh"
#include "campaign/retry.hh"

namespace eat::campaign
{

/** Schema identifier of the quarantine (poisoned-cell) file. */
inline constexpr std::string_view kQuarantineSchema =
    "eat.campaign.quarantine";
inline constexpr int kQuarantineVersion = 1;

/** One unit of campaign work with a stable identity. */
struct EngineTask
{
    /** Checkpoint key: must be unique and stable across invocations
     *  ("mcf:THP", "scenario-42"). */
    std::string key;

    /** Runs in a forked child; see campaign::TaskFn. */
    TaskFn fn;
};

/**
 * Called once per task with its final outcome: first for journal
 * replays (in task order), then for live completions (in completion
 * order). @p inFlight counts children still running (0 for replays).
 * Return false to abort the campaign; remaining children are killed
 * and reaped and no further callbacks fire.
 */
using OutcomeFn = std::function<bool(std::size_t index,
                                     const TaskOutcome &outcome,
                                     std::size_t inFlight)>;

struct EngineOptions
{
    /** Children in flight at once; 0 = hardware concurrency. */
    unsigned jobs = 1;

    /** Per-attempt wall-clock watchdog; 0 disables it. */
    unsigned timeoutSeconds = 0;

    /** Transient-failure retry budget and backoff shape. */
    RetryPolicy retry;

    /** Checkpoint journal path; empty disables checkpointing and
     *  quarantine records. Poisoned cells go to
     *  "<journalPath>.quarantine". */
    std::string journalPath;

    /** Campaign identity for the journal meta record. Resuming under a
     *  different fingerprint is an error, not a silent mismatch. */
    std::string fingerprint;

    /** Replay the journal before dispatching (requires journalPath). */
    bool resume = false;

    /** Caller's verdict on a cleanly exited child's payload; a payload
     *  this rejects is a persistent BadPayload failure. Default:
     *  accept anything. */
    std::function<bool(const std::string &payload)> payloadOk;

    /** Whether a journaled outcome satisfies its task on resume; a
     *  rejected entry re-runs. Default: accept successes only
     *  (failure == None). */
    std::function<bool(const TaskOutcome &outcome)> acceptCheckpoint;

    /**
     * Testing aid for the crash-resume suite: raise SIGKILL on this
     * process immediately after the Nth journal append — a real
     * parent death at a deterministic point. 0 = off.
     */
    unsigned killAfterCheckpoints = 0;
};

struct EngineSummary
{
    std::size_t executed = 0;    ///< tasks run (and settled) live
    std::size_t replayed = 0;    ///< tasks satisfied from the journal
    std::size_t retries = 0;     ///< extra attempts dispatched
    std::size_t quarantined = 0; ///< poisoned-cell records written
    bool aborted = false;        ///< the callback returned false

    /** SIGINT/SIGTERM that stopped dispatch; 0 = ran to completion. */
    int interruptSignal = 0;

    bool interrupted() const { return interruptSignal != 0; }
};

/** @p requested jobs (EngineOptions::jobs) with 0 resolved to the
 *  hardware concurrency, at least 1. */
unsigned effectiveJobs(unsigned requested);

/**
 * Parse and validate a --jobs/-j value: a decimal count in
 * [1, 4 x hardware concurrency]. Rejects 0, non-numeric text, and
 * values beyond that cap (they only add scheduler churn).
 */
Result<unsigned> parseJobs(std::string_view text);

/**
 * Parse @p arg if it is one of the campaign flags every campaign tool
 * takes: -jN/--jobs=N, --timeout=SECONDS, --retries=N,
 * --checkpoint=PATH, --resume and --kill-after=N (a testing aid that
 * sets killAfterCheckpoints).
 * @return false for any other argument; a bad value fails with
 * "<flag>: <why>".
 */
Result<bool> takeEngineFlag(std::string_view arg, EngineOptions &options);

/**
 * One-line diagnostic of @p outcome's failure class — the wording of
 * quarantine records, eatbatch's CSV error column and eatfuzz's
 * verdicts. @p timeoutSeconds is the watchdog the task ran under.
 */
std::string describeFailure(const TaskOutcome &outcome,
                            unsigned timeoutSeconds);

/**
 * Run every task to a final outcome (or until interrupted/aborted).
 * @p log receives one line per retry, quarantine, and recovery event.
 * Errors are reserved for unusable options and checkpoint problems;
 * per-task failures are outcomes, not errors.
 */
Result<EngineSummary> runEngine(const EngineOptions &options,
                                const std::vector<EngineTask> &tasks,
                                const OutcomeFn &onOutcome,
                                std::ostream &log);

} // namespace eat::campaign

#endif // EAT_CAMPAIGN_ENGINE_HH
