/**
 * @file
 * Fuzzing campaigns: generate, run, judge, shrink, and archive
 * scenarios at scale.
 *
 * A campaign derives its scenarios deterministically from one seed
 * (scenario i is a pure function of (seed, i)), fans them out over the
 * crash-resilient campaign engine — a crashing or hanging scenario
 * costs one child, never the campaign; transient failures retry with
 * backoff; a checkpoint journal makes a killed campaign resumable —
 * and judges each with the oracle suite. Failing scenarios are
 * greedily shrunk in the parent and saved as replayable seed files;
 * every scenario, pass or fail, gets one JSONL verdict record, written
 * in scenario-id order whatever the job count.
 *
 * Verdict-record format (schema "eat.qa.verdict", v2), one per line:
 *
 *   {"schema": "eat.qa.verdict", "v": 2, "id": ..., "scenario": ...,
 *    "status": "pass"|"fail"|"crash"|"timeout", "checked": ...,
 *    "violations": ..., "digest": ..., "seed_file": ...,
 *    "failure_class": "none"|"spawn-failed"|"signal"|"timeout"|
 *                     "nonzero-exit"|"bad-payload",
 *    "exit_code": ..., "term_signal": ..., "attempts": ...}
 *
 * v2 adds the last four fields: the actual failure class (a spawn
 * failure is no longer lumped with a signal death or a garbled
 * payload), the child's exit status / terminating signal, and how
 * many attempts the scenario took (> 1 after transient retries).
 *
 * replayCorpus() re-judges previously saved seed files, which is how
 * CI keeps old failures fixed; runSelfTest() proves the oracles have
 * teeth by requiring that deliberately seeded defects are caught and
 * shrink to a minimal replayable seed.
 */

#ifndef EAT_QA_CAMPAIGN_HH
#define EAT_QA_CAMPAIGN_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "qa/scenario.hh"

namespace eat::qa
{

/** Schema identifier stamped into every verdict record. */
inline constexpr std::string_view kVerdictSchema = "eat.qa.verdict";
inline constexpr int kVerdictVersion = 2;

struct CampaignOptions
{
    /** Campaign seed: scenario i is derived from (seed, i). */
    std::uint64_t seed = 1;

    /** Number of scenarios to generate and judge. */
    std::uint64_t runs = 100;

    /** Concurrent scenario children; 0 = hardware concurrency. */
    unsigned jobs = 1;

    /** Per-scenario watchdog; 0 disables it. */
    unsigned timeoutSeconds = 120;

    /** Where failing seeds are archived; empty = do not archive. */
    std::string corpusDir;

    /** JSONL verdict stream; empty = no verdict file. */
    std::string verdictsPath;

    /** Minimize failing scenarios before archiving them. */
    bool shrink = true;

    /** Checkpoint journal path; empty disables checkpointing. */
    std::string checkpointPath;

    /** Replay the checkpoint journal before dispatching: scenarios
     *  already settled (any verdict) are not re-run. Requires
     *  checkpointPath. */
    bool resume = false;

    /** Transient-failure retry budget per scenario (spawn failure,
     *  signal death, watchdog timeout), with bounded exponential
     *  backoff. What still fails is quarantined, not fatal. */
    unsigned retries = 0;

    /** Testing aid: SIGKILL this process after N checkpoint appends
     *  (a deterministic kill -9 for the crash-resume suite); 0 = off. */
    unsigned killAfterCells = 0;
};

struct CampaignSummary
{
    std::uint64_t scenarios = 0;
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;   ///< oracle violations
    std::uint64_t crashed = 0;  ///< child crash, hang, or spawn failure

    /** Scenarios satisfied from the checkpoint journal on resume
     *  (also counted in passed/failed/crashed). */
    std::uint64_t replayed = 0;

    /** Scenarios recorded in the poisoned-cell (quarantine) file
     *  (also counted in crashed). */
    std::uint64_t quarantined = 0;

    /** Transient-failure retry attempts dispatched. */
    std::uint64_t retries = 0;

    /** SIGINT/SIGTERM that stopped the campaign; 0 = ran to
     *  completion. Settled verdicts are checkpointed — rerun with
     *  resume to finish. */
    int interruptSignal = 0;

    /** Seed files written for failing scenarios. */
    std::vector<std::string> savedSeeds;

    bool interrupted() const { return interruptSignal != 0; }

    bool clean() const { return failed == 0 && crashed == 0; }
};

/** Run a fuzzing campaign; progress goes to @p log. */
Result<CampaignSummary> runCampaign(const CampaignOptions &options,
                                    std::ostream &log);

/**
 * Re-judge saved seed files: @p path is one seed file or a directory
 * whose *.json files are all replayed (in name order). Each seed runs
 * in its own child on the campaign engine, as a campaign's scenarios
 * do, so a seed that crashes or hangs gets a verdict and the rest still
 * run. jobs, timeoutSeconds, retries and verdictsPath apply; each
 * verdict's seed_file names its file. Replay archives nothing, and the
 * checkpoint, resume and kill-after settings are campaign-only.
 */
Result<CampaignSummary> replayCorpus(const std::string &path,
                                     const CampaignOptions &options,
                                     std::ostream &log);

/**
 * Prove the oracles catch defects: a healthy scenario must pass, each
 * deliberate Mutation must be caught, and the mutated failure must
 * shrink to a smaller scenario that still fails after a save/load
 * round-trip. @return the first broken property, or OK.
 */
Status runSelfTest(std::ostream &log);

} // namespace eat::qa

#endif // EAT_QA_CAMPAIGN_HH
