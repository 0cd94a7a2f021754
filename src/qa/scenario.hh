/**
 * @file
 * The fuzzing scenario model: one fully described, replayable
 * simulation setup.
 *
 * A Scenario is the unit the QA subsystem generates, runs, shrinks,
 * and stores. It is deliberately a plain value: everything a run needs
 * (workload, organization, window sizes, seed, Lite schedule, fault
 * plan) is in the struct, so a scenario serialized to a seed file
 * replays bit-identically on any machine — the simulator itself is
 * deterministic, so the scenario *is* the reproduction recipe.
 *
 * Seed-file format: one JSON object per file,
 *
 *   {"schema": "eat.qa.scenario", "v": 1, "id": ..., "workload": ...,
 *    "org": ..., "instructions": ..., "fast_forward": ..., "seed": ...,
 *    "timeline_interval": ..., "eager_ranges": ..., "combined_l1": ...,
 *    "lite_interval": ..., "lite_epsilon": ..., "lite_full_act_prob":
 *    ..., "fault_spec": ...}
 *
 * plus optional multicore fields ("cores", "mix", ...), optional
 * virtualization fields ("vm", "host_pages", "coherence"), and optional
 * L3-tier fields ("l3", "l3_policy", "l3_promote_streak"). The keys
 * after "id" are the rows of the knob table (mc/run_spec.hh), written
 * and read with the obs JSON substrate, so corpus files need no
 * third-party tooling to read or edit.
 */

#ifndef EAT_QA_SCENARIO_HH
#define EAT_QA_SCENARIO_HH

#include <cstdint>
#include <string>

#include "base/status.hh"
#include "mc/run_spec.hh"

namespace eat::qa
{

/** Schema identifier stamped into every seed file. */
inline constexpr std::string_view kScenarioSchema = "eat.qa.scenario";
inline constexpr int kScenarioVersion = 1;

/** One fully described, replayable simulation setup: the run's knobs
 *  (mc::RunSpec) plus the campaign-derived scenario number. */
struct Scenario : mc::RunSpec
{
    /** Generator identity: the campaign-derived scenario number. */
    std::uint64_t id = 0;

    /** Render as a seed-file JSON line. */
    std::string toJson() const;

    /** Human-readable one-line summary for logs. */
    std::string describe() const;

    bool operator==(const Scenario &) const = default;
};

/** Parse a seed-file JSON document (strict: schema/version checked). */
Result<Scenario> scenarioFromJson(std::string_view text);

/** Load a seed file from disk. */
Result<Scenario> loadScenario(const std::string &path);

/** Write @p scenario to @p path as one JSON document plus newline. */
Status saveScenario(const Scenario &scenario, const std::string &path);

} // namespace eat::qa

#endif // EAT_QA_SCENARIO_HH
