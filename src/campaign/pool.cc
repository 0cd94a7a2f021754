#include "campaign/pool.hh"

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ctime>
#include <optional>
#include <unistd.h>

namespace eat::campaign
{

namespace
{

/** A forked task the pool has not reaped yet. */
struct InFlightTask
{
    std::size_t index = 0;
    pid_t pid = -1;
    int fd = -1; ///< read end of the result pipe
    std::chrono::steady_clock::time_point deadline{};
    bool killed = false; ///< watchdog already sent SIGKILL
};

void
writeAll(int fd, const std::string &s)
{
    std::size_t done = 0;
    while (done < s.size()) {
        const ssize_t n = ::write(fd, s.data() + done, s.size() - done);
        if (n <= 0)
            return; // parent gone; nothing useful left to do
        done += static_cast<std::size_t>(n);
    }
}

/**
 * Fork one task. The child restores @p childMask (the pre-pool signal
 * mask), runs the task, writes the payload, and _exits without touching
 * the parent's stdio buffers or destructors. Returns std::nullopt when
 * the process could not even be created, with the failing call and its
 * errno in @p spawnError.
 */
std::optional<InFlightTask>
spawnTask(const TaskFn &task, std::size_t index,
          unsigned timeoutSeconds, const sigset_t &childMask,
          std::string &spawnError)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        spawnError = std::string("pipe() failed: ") +
                     std::strerror(errno);
        return std::nullopt;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        spawnError = std::string("fork() failed: ") +
                     std::strerror(errno);
        ::close(fds[0]);
        ::close(fds[1]);
        return std::nullopt;
    }

    if (pid == 0) {
        ::sigprocmask(SIG_SETMASK, &childMask, nullptr);
        // The parent may have flag-setting SIGINT/SIGTERM handlers
        // installed for graceful shutdown; a child inheriting them
        // would shrug off Ctrl-C. Children die on these signals.
        ::signal(SIGINT, SIG_DFL);
        ::signal(SIGTERM, SIG_DFL);
        ::close(fds[0]);
        int code = 0;
        try {
            writeAll(fds[1], task());
        } catch (...) {
            code = 125; // payload protocol broken; caller sees the code
        }
        ::close(fds[1]);
        ::_exit(code);
    }

    ::close(fds[1]);
    InFlightTask inFlight;
    inFlight.index = index;
    inFlight.pid = pid;
    inFlight.fd = fds[0];
    if (timeoutSeconds > 0) {
        inFlight.deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(timeoutSeconds);
    }
    return inFlight;
}

/** Drain a reaped child's pipe and classify its exit. */
TaskOutcome
finishTask(const InFlightTask &task, int status)
{
    TaskOutcome outcome;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(task.fd, buf, sizeof(buf))) > 0)
        outcome.payload.append(buf, static_cast<std::size_t>(n));
    ::close(task.fd);

    if (task.killed) {
        outcome.failure = FailureClass::TimedOut;
    } else if (WIFSIGNALED(status)) {
        outcome.failure = FailureClass::Crashed;
        outcome.termSignal = WTERMSIG(status);
    } else {
        outcome.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
        if (outcome.exitCode != 0)
            outcome.failure = FailureClass::NonzeroExit;
    }
    return outcome;
}

void
killRemaining(std::vector<InFlightTask> &inFlight)
{
    for (const auto &task : inFlight) {
        ::kill(task.pid, SIGKILL);
        ::waitpid(task.pid, nullptr, 0);
        ::close(task.fd);
    }
    inFlight.clear();
}

} // namespace

bool
runPool(unsigned jobs, unsigned timeoutSeconds,
        const std::function<bool()> &stopRequested,
        const std::vector<TaskFn> &tasks, const DoneFn &onDone)
{
    jobs = std::max(1u, jobs);

    // The reaper blocks SIGCHLD and sleeps in sigtimedwait until a
    // child exits (the signal stays pending if one beat us to it, so
    // there is no wake-up race) or the nearest watchdog deadline
    // passes. No polling, whatever the job count.
    sigset_t chldSet;
    sigemptyset(&chldSet);
    sigaddset(&chldSet, SIGCHLD);
    sigset_t previousMask;
    ::sigprocmask(SIG_BLOCK, &chldSet, &previousMask);

    std::vector<InFlightTask> inFlight;
    std::size_t spawned = 0;
    std::size_t completed = 0;

    while (completed < tasks.size()) {
        // A stop request (SIGINT/SIGTERM flag upstream) ends the run:
        // no new children, everything in flight killed and reaped.
        if (stopRequested && stopRequested()) {
            killRemaining(inFlight);
            ::sigprocmask(SIG_SETMASK, &previousMask, nullptr);
            return false;
        }

        // Keep the pool full.
        while (inFlight.size() < jobs && spawned < tasks.size()) {
            const std::size_t index = spawned++;
            std::string spawnError;
            auto task = spawnTask(tasks[index], index, timeoutSeconds,
                                  previousMask, spawnError);
            if (task) {
                inFlight.push_back(*task);
            } else {
                ++completed;
                TaskOutcome outcome;
                outcome.failure = FailureClass::SpawnFailed;
                outcome.spawnError = std::move(spawnError);
                if (!onDone(index, outcome, inFlight.size())) {
                    killRemaining(inFlight);
                    ::sigprocmask(SIG_SETMASK, &previousMask, nullptr);
                    return false;
                }
            }
        }

        if (inFlight.empty())
            continue; // every remaining task failed to even fork

        // Sleep until a child exits or the nearest deadline. A task
        // already killed but not yet reaped keeps the nap short so its
        // exit is collected promptly.
        auto wait = std::chrono::nanoseconds(std::chrono::hours(1));
        const auto now = std::chrono::steady_clock::now();
        for (const auto &task : inFlight) {
            if (timeoutSeconds == 0)
                break;
            const auto remaining =
                task.killed
                    ? std::chrono::nanoseconds(
                          std::chrono::milliseconds(10))
                    : std::chrono::duration_cast<std::chrono::nanoseconds>(
                          task.deadline - now);
            wait = std::max(std::chrono::nanoseconds(0),
                            std::min(wait, remaining));
        }
        struct timespec ts;
        ts.tv_sec = static_cast<time_t>(wait.count() / 1'000'000'000);
        ts.tv_nsec = static_cast<long>(wait.count() % 1'000'000'000);
        ::sigtimedwait(&chldSet, nullptr, &ts); // EAGAIN = deadline

        // Enforce watchdog deadlines.
        if (timeoutSeconds > 0) {
            const auto t = std::chrono::steady_clock::now();
            for (auto &task : inFlight) {
                if (!task.killed && t >= task.deadline) {
                    ::kill(task.pid, SIGKILL);
                    task.killed = true;
                }
            }
        }

        // Reap every child that has exited.
        for (auto it = inFlight.begin(); it != inFlight.end();) {
            int status = 0;
            const pid_t r = ::waitpid(it->pid, &status, WNOHANG);
            if (r == 0) {
                ++it;
                continue;
            }
            TaskOutcome outcome = finishTask(*it, status);
            const std::size_t index = it->index;
            it = inFlight.erase(it);
            ++completed;
            if (!onDone(index, outcome, inFlight.size())) {
                killRemaining(inFlight);
                ::sigprocmask(SIG_SETMASK, &previousMask, nullptr);
                return false;
            }
        }
    }
    ::sigprocmask(SIG_SETMASK, &previousMask, nullptr);
    return true;
}

} // namespace eat::campaign
