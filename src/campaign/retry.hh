/**
 * @file
 * Failure classification and retry policy for campaign cells.
 *
 * A million-scenario campaign meets every way a forked child can fail:
 * the kernel refuses to spawn it (fork/pipe EAGAIN under load), a
 * signal kills it (OOM killer, a real crash), the watchdog times it
 * out, it exits nonzero, or it runs fine but reports garbage. Lumping
 * those into one "failed" bucket wastes exactly the information an
 * operator (or the retry machinery) needs, so the pool classifies
 * every ended task by its wait status, and the engine only refines a
 * clean exit whose payload it rejects.
 *
 * The classes split into two policies:
 *
 *  - *transient* (spawn failure, signal death, timeout): the same cell
 *    may well succeed on a quieter machine, so it is retried up to the
 *    campaign's budget with bounded exponential backoff;
 *  - *persistent* (nonzero exit, bad payload): deterministic by
 *    construction in this codebase, so retrying only burns time — the
 *    cell is quarantined immediately with full diagnostics.
 *
 * Either way, a failure that sticks is quarantined — recorded and
 * stepped around — rather than aborting or silently truncating the
 * campaign.
 */

#ifndef EAT_CAMPAIGN_RETRY_HH
#define EAT_CAMPAIGN_RETRY_HH

#include <string>
#include <string_view>

#include "base/status.hh"

namespace eat::campaign
{

/** Why a task's final (or intermediate) attempt did not succeed. */
enum class FailureClass
{
    None,        ///< the task succeeded
    SpawnFailed, ///< pipe()/fork() failed; the child never existed
    Crashed,     ///< the child was killed by a signal
    TimedOut,    ///< the watchdog killed a hung child
    NonzeroExit, ///< the child exited with a nonzero status
    BadPayload,  ///< the child exited 0 but its payload was rejected
};

/** Stable machine-readable name ("signal", "timeout", ...). */
std::string_view failureClassName(FailureClass c);

/** Parse a failureClassName() string back (journal replay). */
Result<FailureClass> parseFailureClass(std::string_view name);

/** True for classes worth retrying (see the file comment). */
bool isTransient(FailureClass c);

/** How one task ended: from the pool, the engine, or the journal. */
struct TaskOutcome
{
    FailureClass failure = FailureClass::None;
    std::string payload;    ///< everything the child wrote to its pipe
    int termSignal = 0;     ///< killing signal (Crashed)
    int exitCode = 0;       ///< child exit code (NonzeroExit)
    std::string spawnError; ///< which call failed and why (SpawnFailed)
    unsigned attempts = 1;  ///< total attempts, retries included
    bool quarantined = false;   ///< recorded in the poisoned-cell file
    bool fromCheckpoint = false; ///< replayed from the journal
};

/** Hard cap on --retries: beyond this, backoff outlives the campaign. */
inline constexpr unsigned kMaxRetries = 10;

/** How often and how patiently transient failures are retried. */
struct RetryPolicy
{
    /** Extra attempts after the first; 0 disables retrying. */
    unsigned maxRetries = 0;

    /** First backoff delay; doubles per retry. */
    unsigned backoffBaseMs = 200;

    /** Backoff ceiling, so retry 10 waits seconds, not hours. */
    unsigned backoffCapMs = 5'000;

    /**
     * Delay before retry @p retry (1-based): min(base * 2^(retry-1),
     * cap). Deterministic — no jitter — so retried campaigns stay
     * reproducible.
     */
    unsigned backoffMsForRetry(unsigned retry) const;
};

/** Parse and validate a --retries value: a count in [0, kMaxRetries]. */
Result<unsigned> parseRetries(std::string_view text);

} // namespace eat::campaign

#endif // EAT_CAMPAIGN_RETRY_HH
