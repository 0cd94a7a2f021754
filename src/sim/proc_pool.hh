/**
 * @file
 * Fork-per-task process pool with watchdog and signal-driven reaping.
 *
 * Extracted from the batch runner so every campaign-style driver (the
 * sweep runner, the fuzzing campaign) shares one hardened isolation
 * mechanism: each task runs in its own forked child, a crash or a
 * panic costs exactly that task, a per-task wall-clock watchdog kills
 * hangs, and the parent sleeps in sigtimedwait on SIGCHLD rather than
 * polling. The child reports back over a pipe; the parent never trusts
 * it further than that payload and its exit status.
 *
 * Payload protocol is the caller's: the pool moves opaque bytes. One
 * caveat inherited from the original runner: the parent drains the
 * pipe only after the child exits, so payloads must stay below the
 * kernel pipe capacity (64 KiB on Linux) or the child deadlocks in
 * write() until the watchdog kills it. Every current payload is a few
 * hundred bytes.
 */

#ifndef EAT_SIM_PROC_POOL_HH
#define EAT_SIM_PROC_POOL_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace eat::sim
{

/** A fork-per-task pool; see the file comment for the guarantees. */
class ProcessPool
{
  public:
    struct Config
    {
        /** Children kept in flight at once (>= 1). */
        unsigned jobs = 1;
        /** Per-task wall-clock limit; 0 disables the watchdog. */
        unsigned timeoutSeconds = 0;
        /**
         * Polled between dispatches and after every wake-up: when it
         * returns true, the pool stops spawning, kills and reaps every
         * in-flight child, and run() returns false. Callers install a
         * SIGINT/SIGTERM flag here for graceful shutdown (the pool's
         * own sleep is interrupted by any handled signal, so the hook
         * is checked promptly).
         */
        std::function<bool()> stopRequested;
    };

    /** How one task ended. */
    enum class TaskState
    {
        Done,        ///< child exited on its own; payload is complete
        Crashed,     ///< child died on a signal it did not expect
        TimedOut,    ///< watchdog killed it
        SpawnFailed, ///< the child could not be created; never ran
    };

    struct TaskResult
    {
        TaskState state = TaskState::SpawnFailed;
        /** Everything the child wrote to its pipe before exiting. */
        std::string payload;
        /** Terminating signal (valid when state == Crashed). */
        int termSignal = 0;
        /** Child exit code (valid when state == Done). */
        int exitCode = 0;
        /** Which call failed and why (valid when state == SpawnFailed),
         *  e.g. "fork() failed: Resource temporarily unavailable". */
        std::string spawnError;
    };

    /**
     * Runs inside the forked child; the returned string is written to
     * the result pipe and the child exits 0. A thrown exception makes
     * the child exit 125 with whatever was already written (callers
     * normally catch and encode errors in the payload instead).
     */
    using TaskFn = std::function<std::string()>;

    /**
     * Called in the parent as each task completes, in completion (not
     * submission) order. @p index is the task's position in the input
     * vector; @p inFlight counts children still running. Return false
     * to abort the pool: remaining children are killed and reaped, and
     * no further callbacks fire.
     */
    using DoneFn = std::function<bool(std::size_t index,
                                      const TaskResult &result,
                                      std::size_t inFlight)>;

    /**
     * Run every task through the pool. Blocks until all tasks have
     * completed, the callback aborted, or Config::stopRequested fired.
     * Tasks are started in order; completions arrive in any order.
     * @return true when every task completed and was reported.
     */
    static bool run(const Config &config,
                    const std::vector<TaskFn> &tasks, const DoneFn &onDone);
};

} // namespace eat::sim

#endif // EAT_SIM_PROC_POOL_HH
