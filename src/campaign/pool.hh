/**
 * @file
 * Fork-per-task process pool with watchdog and signal-driven reaping.
 *
 * The campaign engine dispatches every task through here, so each
 * campaign-style driver (the sweep runner, the fuzzing campaign, corpus
 * replay) shares one hardened isolation mechanism: each task runs in
 * its own forked child, a crash or a panic costs exactly that task, a
 * per-task wall-clock watchdog kills hangs, and the parent sleeps in
 * sigtimedwait on SIGCHLD rather than polling. The child reports back
 * over a pipe; the parent never trusts it further than that payload
 * and its exit status, from which the pool sets the outcome's failure
 * class.
 *
 * Payload protocol is the caller's: the pool moves opaque bytes. One
 * caveat inherited from the original runner: the parent drains the
 * pipe only after the child exits, so payloads must stay below the
 * kernel pipe capacity (64 KiB on Linux) or the child deadlocks in
 * write() until the watchdog kills it. Every current payload is a few
 * hundred bytes.
 */

#ifndef EAT_CAMPAIGN_POOL_HH
#define EAT_CAMPAIGN_POOL_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/retry.hh"

namespace eat::campaign
{

/**
 * Runs inside the forked child; the returned string is written to the
 * result pipe and the child exits 0. A thrown exception makes the
 * child exit 125 with whatever was already written (callers normally
 * catch and encode errors in the payload instead).
 */
using TaskFn = std::function<std::string()>;

/**
 * Called in the parent as each task ends, in completion (not
 * submission) order. @p index is the task's position in the input
 * vector; @p inFlight counts children still running. @p outcome's
 * failure class comes from the wait status: None for exit 0,
 * NonzeroExit with the exit code, Crashed with the signal, TimedOut
 * for a watchdog kill, SpawnFailed with the call that failed. The
 * callee may edit the outcome. Return false to abort the pool:
 * remaining children are killed and reaped, and no further callbacks
 * fire.
 */
using DoneFn = std::function<bool(std::size_t index, TaskOutcome &outcome,
                                  std::size_t inFlight)>;

/**
 * Run every task through the pool, keeping up to @p jobs (at least 1)
 * children in flight under a @p timeoutSeconds watchdog (0 disables
 * it). Blocks until all tasks have ended, the callback aborted, or
 * @p stopRequested returned true. That hook is polled between
 * dispatches and after every wake-up; on a stop the pool spawns no
 * more children and kills and reaps those in flight. Callers install a
 * SIGINT/SIGTERM flag there for graceful shutdown (the pool's own
 * sleep is interrupted by any handled signal, so the hook is checked
 * promptly). Tasks are started in order; completions arrive in any
 * order.
 * @return true when every task ended and was reported.
 */
bool runPool(unsigned jobs, unsigned timeoutSeconds,
             const std::function<bool()> &stopRequested,
             const std::vector<TaskFn> &tasks, const DoneFn &onDone);

} // namespace eat::campaign

#endif // EAT_CAMPAIGN_POOL_HH
