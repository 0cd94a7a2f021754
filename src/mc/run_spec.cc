#include "mc/run_spec.hh"

#include <iterator>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/parse.hh"
#include "check/fault_injector.hh"
#include "l3/l3_config.hh"
#include "mc/mix.hh"
#include "vm/host_table.hh"
#include "workloads/suite.hh"

namespace eat::mc
{

RunSpec
RunSpec::commandLine()
{
    const sim::SimConfig defaults;
    RunSpec spec;
    spec.simInstructions = defaults.simulateInstructions;
    spec.fastForward = defaults.fastForwardInstructions;
    return spec;
}

namespace
{

/** The value behind a name the table already vetted. */
template <typename T>
T
vetted(const Result<T> &parsed)
{
    if (!parsed.ok())
        eat_fatal("run spec: ", parsed.status().message());
    return parsed.value();
}

} // namespace

sim::SimConfig
RunSpec::toSimConfig() const
{
    sim::SimConfig cfg;
    if (const auto spec = workloads::findWorkload(workload))
        cfg.workload = *spec;
    cfg.mmu = core::MmuConfig::make(org);
    cfg.mmu.combinedFullyAssocL1 = combinedL1;
    if (liteInterval > 0)
        cfg.mmu.lite.intervalInstructions = liteInterval;
    if (liteEpsilon >= 0.0) {
        if (cfg.mmu.lite.mode == lite::ThresholdMode::Relative)
            cfg.mmu.lite.epsilonRelative = liteEpsilon;
        else
            cfg.mmu.lite.epsilonAbsoluteMpki = liteEpsilon;
    }
    if (liteFullActProb >= 0.0)
        cfg.mmu.lite.fullActivationProbability = liteFullActProb;
    cfg.simulateInstructions = simInstructions;
    cfg.fastForwardInstructions = fastForward;
    cfg.seed = seed;
    cfg.timelineInterval = timelineInterval;
    cfg.eagerRangesPerRegion = eagerRanges;
    cfg.checkLevel = checkLevel;
    cfg.faultSpec = faultSpec;
    if (virtualized()) {
        cfg.mmu.vmEnabled = true;
        cfg.mmu.vmIdentityHost =
            vetted(vm::hostModeFromName(vmMode)) == vm::HostMode::Identity;
        cfg.mmu.hostPageSize = vetted(vm::hostPageSizeFromName(hostPages));
    }
    if (hasL3()) {
        if (!l3Policy.empty()) {
            cfg.mmu.l3Cache.policy =
                vetted(l3::l3InsertPolicyFromName(l3Policy));
        }
        if (l3PromoteStreak > 0)
            cfg.mmu.l3Cache.promoteStreak = l3PromoteStreak;
        // After the Lite overrides above: enableL3 scales the active
        // epsilon, so it must see the run's final Lite schedule.
        cfg.mmu.enableL3(vetted(l3::l3ModeFromName(l3Mode)));
    }
    return cfg;
}

McConfig
RunSpec::toMcConfig() const
{
    McConfig cfg;
    cfg.base = toSimConfig();
    cfg.cores = cores;
    if (mixSpec.empty())
        cfg.mix = {cfg.base.workload};
    else
        cfg.mix = vetted(parseMixSpec(mixSpec));
    cfg.sharedAddressSpace = sharedSpace;
    cfg.ctxFlush = ctxFlush;
    cfg.quantumInstructions = quantum;
    cfg.remapInterval = remapInterval;
    cfg.faultCore = faultCore;
    if (!coherence.empty())
        cfg.coherence = vetted(coherenceModeFromName(coherence));
    return cfg;
}

Result<core::MmuOrg>
parseOrgName(std::string_view name)
{
    for (const auto org : core::allOrgs()) {
        if (name == core::orgName(org))
            return org;
    }
    return Status::error("unknown organization '", std::string(name), "'");
}

namespace
{

// --- checks a value's text must pass before it is stored

Status
positive(std::string_view text)
{
    const auto v = parseU64(text);
    if (!v.ok())
        return v.status();
    return v.value() > 0 ? Status() : Status::error("must be positive");
}

Status
knownWorkload(std::string_view text)
{
    if (workloads::findWorkload(std::string(text)))
        return Status();
    return Status::error("unknown workload '", std::string(text), "'");
}

/** The check that @p text is a name @p Parse accepts. */
template <auto Parse>
Status
parses(std::string_view text)
{
    return Parse(std::string(text)).status();
}

// --- generic parse and print of one RunSpec field

template <auto Member>
using FieldOf =
    std::remove_cvref_t<decltype(std::declval<RunSpec>().*Member)>;

/** Strict parse of @p text into field @p Member, after @p Check. */
template <auto Member, auto Check = nullptr>
Status
parseField(RunSpec &spec, std::string_view text)
{
    if constexpr (!std::is_null_pointer_v<decltype(Check)>) {
        if (Status st = Check(text); !st.ok())
            return st;
    }
    using T = FieldOf<Member>;
    T &field = spec.*Member;
    if constexpr (std::is_same_v<T, std::string>) {
        field = std::string(text);
    } else if constexpr (std::is_same_v<T, bool>) {
        if (text != "true" && text != "false")
            return Status::error("expected true or false, got '",
                                 std::string(text), "'");
        field = text == "true";
    } else if constexpr (std::is_same_v<T, double>) {
        const auto v = parseF64(text);
        if (!v.ok())
            return v.status();
        field = v.value();
    } else {
        const auto v = parseU64(text);
        if (!v.ok())
            return v.status();
        if (v.value() > std::numeric_limits<T>::max())
            return Status::error(v.value(), " is out of range");
        field = static_cast<T>(v.value());
    }
    return Status();
}

/** Exact text of field @p Member (doubles at round-trip precision). */
template <auto Member>
std::string
printField(const RunSpec &spec)
{
    using T = FieldOf<Member>;
    const T &field = spec.*Member;
    if constexpr (std::is_same_v<T, std::string>)
        return field;
    else if constexpr (std::is_same_v<T, bool>)
        return field ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        return obs::jsonNumberExact(field);
    else
        return std::to_string(field);
}

/** The row of a plain field. */
template <auto Member, auto Check = nullptr>
constexpr Knob
field(std::string_view flag, std::string_view key, unsigned tools,
      std::string_view bare = "",
      std::string (*needs)(const RunSpec &) = nullptr,
      bool (*saved)(const RunSpec &) = nullptr)
{
    using T = FieldOf<Member>;
    const JsonKind json = std::is_same_v<T, std::string> ? JsonKind::String
                          : std::is_same_v<T, bool>      ? JsonKind::Bool
                                                         : JsonKind::Number;
    return {flag, key, tools, json, bare, parseField<Member, Check>,
            printField<Member>, needs, saved};
}

/** Strict parse of @p text into the enum field @p Member. */
template <auto Member, auto Parse>
Status
parseEnum(RunSpec &spec, std::string_view text)
{
    const auto value = Parse(text);
    if (!value.ok())
        return value.status();
    spec.*Member = value.value();
    return Status();
}

std::string
printOrg(const RunSpec &spec)
{
    return std::string(core::orgName(spec.org));
}

std::string
printCheck(const RunSpec &spec)
{
    return std::string(check::checkLevelName(spec.checkLevel));
}

// --- requires-rules

std::string
needsMulticore(const RunSpec &spec)
{
    return spec.multicore() ? "" : " requires --cores/--mix";
}

std::string
needsFaultCore(const RunSpec &spec)
{
    if (!spec.multicore() || spec.faultCore < spec.cores)
        return needsMulticore(spec);
    return ": core " + std::to_string(spec.faultCore) +
           " beyond core count " + std::to_string(spec.cores);
}

std::string
needsVm(const RunSpec &spec)
{
    return spec.virtualized() ? "" : " requires --vm";
}

std::string
needsCacheTier(const RunSpec &spec)
{
    return spec.l3Mode == "cache" ? "" : " requires --l3=cache";
}

std::string
needsPromote(const RunSpec &spec)
{
    return spec.l3Policy == "promote" ? ""
                                      : " requires --l3-policy=promote";
}

// --- when a seed file carries an optional key

bool
multicoreRun(const RunSpec &spec)
{
    return spec.multicore();
}

bool
coherenceSet(const RunSpec &spec)
{
    return spec.multicore() && !spec.coherence.empty();
}

bool
virtualizedRun(const RunSpec &spec)
{
    return spec.virtualized();
}

bool
tieredRun(const RunSpec &spec)
{
    return spec.hasL3();
}

bool
policySet(const RunSpec &spec)
{
    return spec.hasL3() && !spec.l3Policy.empty();
}

bool
streakSet(const RunSpec &spec)
{
    return spec.hasL3() && spec.l3PromoteStreak > 0;
}

constexpr unsigned kCli = kEatsim | kEatbatch;
constexpr unsigned kAll = kCli | kBench;

/** The table, in seed-file key order. workload and org name the grid
 *  cell: eatsim takes one (--workload, --org) and eatbatch sweeps them
 *  (--workloads, --orgs), so neither is a flag of the table. */
constexpr Knob kKnobs[] = {
    field<&RunSpec::workload, knownWorkload>("", "workload", 0),
    {"", "org", 0, JsonKind::String, "",
     parseEnum<&RunSpec::org, parseOrgName>, printOrg, nullptr, nullptr},
    field<&RunSpec::simInstructions, positive>("--instructions",
                                               "instructions", kAll),
    field<&RunSpec::fastForward>("--fast-forward", "fast_forward", kAll),
    field<&RunSpec::seed>("--seed", "seed", kAll),
    field<&RunSpec::timelineInterval>("--timeline", "timeline_interval",
                                      kEatsim),
    field<&RunSpec::eagerRanges>("", "eager_ranges", 0),
    field<&RunSpec::combinedL1>("--combined-l1", "combined_l1", kEatsim,
                                "true"),
    field<&RunSpec::liteInterval>("", "lite_interval", 0),
    field<&RunSpec::liteEpsilon>("", "lite_epsilon", 0),
    field<&RunSpec::liteFullActProb>("", "lite_full_act_prob", 0),
    field<&RunSpec::faultSpec, parses<check::parseFaultSpecs>>(
        "--inject", "fault_spec", kCli),
    {"--check", "", kCli, JsonKind::String, "",
     parseEnum<&RunSpec::checkLevel, check::parseCheckLevel>, printCheck,
     nullptr, nullptr},
    field<&RunSpec::cores, parses<parseCoreCount>>(
        "--cores", "cores", kCli, "", nullptr, multicoreRun),
    field<&RunSpec::mixSpec, parses<parseMixSpec>>(
        "--mix", "mix", kCli, "", nullptr, multicoreRun),
    field<&RunSpec::sharedSpace>("--shared", "shared_space", kCli, "true",
                                 needsMulticore, multicoreRun),
    field<&RunSpec::ctxFlush>("--ctx-flush", "ctx_flush", kCli, "true",
                              needsMulticore, multicoreRun),
    field<&RunSpec::quantum, positive>("--quantum", "quantum", kCli, "",
                                       needsMulticore, multicoreRun),
    field<&RunSpec::remapInterval>("--remap-interval", "remap_interval",
                                   kCli, "", needsMulticore, multicoreRun),
    field<&RunSpec::faultCore>("--fault-core", "fault_core", kEatsim, "",
                               needsFaultCore, multicoreRun),
    field<&RunSpec::coherence, parses<coherenceModeFromName>>(
        "--coherence", "coherence", kCli, "", needsMulticore, coherenceSet),
    field<&RunSpec::vmMode, parses<vm::hostModeFromName>>(
        "--vm", "vm", kCli, "paged", nullptr, virtualizedRun),
    field<&RunSpec::hostPages, parses<vm::hostPageSizeFromName>>(
        "--host-pages", "host_pages", kCli, "", needsVm, virtualizedRun),
    field<&RunSpec::l3Mode, parses<l3::l3ModeFromName>>(
        "--l3", "l3", kCli, "", nullptr, tieredRun),
    field<&RunSpec::l3Policy, parses<l3::l3InsertPolicyFromName>>(
        "--l3-policy", "l3_policy", kCli, "", needsCacheTier, policySet),
    field<&RunSpec::l3PromoteStreak, positive>(
        "--l3-promote-streak", "l3_promote_streak", kCli, "", needsPromote,
        streakSet),
};

static_assert(std::size(kKnobs) <= 32, "RunFlags keeps one bit per knob");

} // namespace

std::string_view
Knob::name() const
{
    return key.empty() ? flag.substr(2) : key;
}

std::span<const Knob>
runKnobs()
{
    return kKnobs;
}

Result<bool>
RunFlags::take(std::string_view arg)
{
    for (std::size_t i = 0; i < std::size(kKnobs); ++i) {
        const Knob &k = kKnobs[i];
        if (!(k.tools & tool_) || !arg.starts_with(k.flag))
            continue;
        const std::string_view rest = arg.substr(k.flag.size());
        std::string_view text;
        if (rest.empty() && !k.bare.empty())
            text = k.bare;
        else if (rest.starts_with('=') && k.json != JsonKind::Bool)
            text = rest.substr(1);
        else
            continue;
        if (Status st = k.parse(spec, text); !st.ok())
            return Status::error(k.flag, ": ", st.message());
        given_ |= 1u << i;
        return true;
    }
    return false;
}

bool
RunFlags::given(std::string_view flag) const
{
    for (std::size_t i = 0; i < std::size(kKnobs); ++i) {
        if (kKnobs[i].flag == flag)
            return (given_ >> i) & 1u;
    }
    return false;
}

void
RunFlags::defaultMix(const std::string &workloads)
{
    if (given("--cores") && !given("--mix"))
        spec.mixSpec = workloads;
}

Status
RunFlags::check() const
{
    for (std::size_t i = 0; i < std::size(kKnobs); ++i) {
        const Knob &k = kKnobs[i];
        if (!((given_ >> i) & 1u) || !k.needs)
            continue;
        if (const auto why = k.needs(spec); !why.empty())
            return Status::error(k.flag, why);
    }
    return Status();
}

std::string
fingerprint(const RunSpec &spec)
{
    std::string out;
    for (const Knob &k : kKnobs) {
        out += '|';
        out += k.name();
        out += '=';
        out += k.print(spec);
    }
    return out;
}

void
putKnobs(const RunSpec &spec, obs::JsonObject &json)
{
    for (const Knob &k : kKnobs) {
        if (k.key.empty() || (k.saved && !k.saved(spec)))
            continue;
        if (k.json == JsonKind::String)
            json.put(k.key, k.print(spec));
        else
            json.putRaw(k.key, k.print(spec));
    }
}

Result<RunSpec>
readKnobs(const obs::JsonValue &json)
{
    static constexpr std::string_view kKindName[] = {"numeric", "bool",
                                                     "string"};
    const RunSpec defaults;
    RunSpec spec;
    std::vector<const Knob *> present;
    for (const Knob &k : kKnobs) {
        if (k.key.empty())
            continue;
        const std::string_view kind = kKindName[static_cast<int>(k.json)];
        const auto *v = json.find(k.key);
        if (!v) {
            if (!k.saved)
                return Status::error("missing ", kind, " field '", k.key,
                                     "'");
            continue;
        }
        std::string text;
        if (k.json == JsonKind::Number && v->isNumber()) {
            text = v->exactUint ? std::to_string(*v->exactUint)
                                : obs::jsonNumberExact(v->number);
        } else if (k.json == JsonKind::Bool && v->isBool()) {
            text = v->boolean ? "true" : "false";
        } else if (k.json == JsonKind::String && v->isString()) {
            text = v->string;
        } else {
            return Status::error("non-", kind, " field '", k.key, "'");
        }
        // A default value is already in place; anything else goes
        // through the same strict parser as the flag.
        if (text != k.print(defaults)) {
            if (Status st = k.parse(spec, text); !st.ok())
                return Status::error("'", k.key, "': ", st.message());
        }
        present.push_back(&k);
    }
    for (const Knob *k : present) {
        if (!k->needs)
            continue;
        if (const auto why = k->needs(spec); !why.empty())
            return Status::error("'", k->key, "'", why);
    }
    return spec;
}

} // namespace eat::mc
