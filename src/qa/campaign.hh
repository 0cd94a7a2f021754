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

#include "campaign/engine.hh"
#include "qa/scenario.hh"

namespace eat::qa
{

/** Schema identifier stamped into every verdict record. */
inline constexpr std::string_view kVerdictSchema = "eat.qa.verdict";
inline constexpr int kVerdictVersion = 2;

struct CampaignOptions
{
    CampaignOptions() { engine.timeoutSeconds = 120; }

    /** Campaign seed: scenario i is derived from (seed, i). */
    std::uint64_t seed = 1;

    /** Number of scenarios to generate and judge. */
    std::uint64_t runs = 100;

    /**
     * Jobs (one child at a time by default), the per-scenario watchdog
     * (120 s by default), retries, and the checkpoint journal (none by
     * default). With a journal, resume replays every settled scenario,
     * whatever its verdict, instead of re-running it. runCampaign sets
     * the fingerprint, payloadOk and acceptCheckpoint itself.
     */
    campaign::EngineOptions engine;

    /** Where failing seeds are archived; empty = do not archive. */
    std::string corpusDir;

    /** JSONL verdict stream; empty = no verdict file. */
    std::string verdictsPath;

    /** Minimize failing scenarios before archiving them. */
    bool shrink = true;
};

struct CampaignSummary
{
    std::uint64_t scenarios = 0;
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;   ///< oracle violations
    std::uint64_t crashed = 0;  ///< child crash, hang, or spawn failure

    /** The engine's counts: scenarios replayed from the checkpoint
     *  journal (also counted in passed/failed/crashed), scenarios
     *  quarantined (also counted in crashed), retry attempts, and the
     *  SIGINT/SIGTERM that stopped the campaign. Settled verdicts are
     *  checkpointed — rerun with resume to finish. */
    campaign::EngineSummary engine;

    /** Seed files written for failing scenarios. */
    std::vector<std::string> savedSeeds;

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
 * run. The engine's jobs, watchdog and retries and verdictsPath apply;
 * each verdict's seed_file names its file. Replay archives nothing and
 * clears the journal, resume and kill-after settings.
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
