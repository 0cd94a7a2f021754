/**
 * @file
 * The run description: every knob that shapes one simulation, and the
 * one table that parses, checks and prints each of them.
 *
 * A RunSpec is a plain value. Every front end reads and writes it
 * through runKnobs(): eatsim's and eatbatch's flags, the window flags
 * of the bench programs, the qa seed files and eatbatch's resume
 * fingerprint. toMcConfig() is the one place where a knob reaches the
 * engine. Adding a knob is one row in the table plus one line in
 * toMcConfig().
 */

#ifndef EAT_MC_RUN_SPEC_HH
#define EAT_MC_RUN_SPEC_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "base/status.hh"
#include "core/config.hh"
#include "mc/mc_simulator.hh"
#include "obs/json.hh"
#include "sim/simulator.hh"

namespace eat::mc
{

/** Everything that shapes one run (the defaults describe a small
 *  single-core run; command lines start from commandLine()). */
struct RunSpec
{
    std::string workload = "mcf";
    core::MmuOrg org = core::MmuOrg::Thp;

    std::uint64_t simInstructions = 100'000;
    std::uint64_t fastForward = 0;
    std::uint64_t seed = 42;

    /** MPKI timeline sampling interval; 0 = off. */
    std::uint64_t timelineInterval = 0;

    /** eagerRangesPerRegion override; 0 keeps the org default. */
    unsigned eagerRanges = 0;

    /** Paper §4.4 fully associative combined L1. */
    bool combinedL1 = false;

    // Lite schedule overrides (0 / negative = keep the org default).
    std::uint64_t liteInterval = 0;
    double liteEpsilon = -1.0;      ///< in the org's threshold mode
    double liteFullActProb = -1.0;

    /** Fault-injection plan (fault_injector.hh grammar); empty = none. */
    std::string faultSpec;

    check::CheckLevel checkLevel = check::CheckLevel::Full;

    // --- multicore (meaningful only when multicore()).
    unsigned cores = 1;
    std::string mixSpec; ///< comma list; empty = just `workload`
    bool sharedSpace = false;
    bool ctxFlush = false;
    std::uint64_t quantum = 100'000;
    std::uint64_t remapInterval = 0;
    unsigned faultCore = 0;

    // --- virtualization (empty = bare metal).
    std::string vmMode;           ///< "", "identity", or "paged"
    std::string hostPages = "4k"; ///< host page size of a paged host
    std::string coherence;        ///< "", "ipi", or "hw"

    // --- L3 translation tier (empty = none).
    std::string l3Mode;   ///< "", "cache", or "dram"
    std::string l3Policy; ///< "", "walk", or "promote" (cache tier only)
    unsigned l3PromoteStreak = 0; ///< promote threshold; 0 = default

    /** The spec a command line starts from: SimConfig's windows. */
    static RunSpec commandLine();

    /** True when the run takes the multicore driver: more than one
     *  core or an explicit mix. A command line that names --cores
     *  without --mix makes its workloads the mix. */
    bool multicore() const { return cores > 1 || !mixSpec.empty(); }

    /** True when the run is under nested paging. */
    bool virtualized() const { return !vmMode.empty(); }

    /** True when the run has an L3 translation tier. */
    bool hasL3() const { return !l3Mode.empty() && l3Mode != "none"; }

    /** The per-core SimConfig of this run. */
    sim::SimConfig toSimConfig() const;

    /** The engine configuration of this run. */
    McConfig toMcConfig() const;

    bool operator==(const RunSpec &) const = default;
};

/** Front ends that take a knob as a flag (Knob::tools bits). */
enum KnobTool : unsigned
{
    kEatsim = 1,
    kEatbatch = 2,
    kBench = 4,
};

/** How a seed file spells a knob's value. */
enum class JsonKind
{
    Number,
    Bool,
    String,
};

/** One knob: how every front end names, reads, checks and prints it. */
struct Knob
{
    std::string_view flag; ///< "--quantum"; empty: no flag
    std::string_view key;  ///< seed-file key; empty: not in seed files
    unsigned tools;        ///< KnobTool bits that take the flag
    JsonKind json;
    /** The value of a bare "--flag"; empty: the flag needs "=VALUE".
     *  A Bool knob is a bare switch only. */
    std::string_view bare;

    /** Strict parse of @p text into @p spec. */
    Status (*parse)(RunSpec &spec, std::string_view text);

    /** Exact text of the value: parse(print(s)) restores it. */
    std::string (*print)(const RunSpec &spec);

    /**
     * The requires-rule of a set knob: "" when @p spec satisfies it,
     * else what is wrong, worded to follow the flag or key
     * (" requires --vm"). nullptr: the knob stands alone.
     */
    std::string (*needs)(const RunSpec &spec);

    /** When a seed file carries the key; nullptr: always, and a seed
     *  file without it is malformed. */
    bool (*saved)(const RunSpec &spec);

    /** The key, or the flag without its dashes. */
    std::string_view name() const;
};

/** The knob table, in seed-file order. */
std::span<const Knob> runKnobs();

/** A command line's run knobs, parsed through the table. */
class RunFlags
{
  public:
    explicit RunFlags(unsigned tool, RunSpec start = RunSpec::commandLine())
        : spec(std::move(start)), tool_(tool)
    {
    }

    /**
     * Parse @p arg if it is the flag of a knob this tool takes.
     * @return false when no knob claims it; a bad value fails with
     * "<flag>: <why>".
     */
    Result<bool> take(std::string_view arg);

    /** A given --cores without --mix runs @p workloads ("a,b") as the
     *  mix, so --cores selects the multicore driver at any count. */
    void defaultMix(const std::string &workloads);

    /** The requires-rule of every given knob, in table order
     *  ("--quantum requires --cores/--mix"). */
    Status check() const;

    RunSpec spec;

  private:
    /** True when the command line gave @p flag. */
    bool given(std::string_view flag) const;

    unsigned tool_;
    std::uint32_t given_ = 0; ///< bit i: runKnobs()[i]
};

/** Every knob as "|name=value", exact: two specs print alike exactly
 *  when they describe the same run. */
std::string fingerprint(const RunSpec &spec);

/** Add the saved knobs of @p spec to a seed-file object. */
void putKnobs(const RunSpec &spec, obs::JsonObject &json);

/** Read the knobs of a seed-file object, checking every present key's
 *  requires-rule ("'quantum' requires --cores/--mix"). */
Result<RunSpec> readKnobs(const obs::JsonValue &json);

/** Parse an organization display name ("THP", "RMM_Lite", ...). */
Result<core::MmuOrg> parseOrgName(std::string_view name);

} // namespace eat::mc

#endif // EAT_MC_RUN_SPEC_HH
