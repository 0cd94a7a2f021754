#include "qa/scenario.hh"

#include <fstream>
#include <sstream>

#include "obs/json.hh"

namespace eat::qa
{

std::string
Scenario::toJson() const
{
    obs::JsonObject json;
    json.put("schema", kScenarioSchema);
    json.put("v", kScenarioVersion);
    json.put("id", id);
    mc::putKnobs(*this, json);
    return json.str();
}

std::string
Scenario::describe() const
{
    std::ostringstream os;
    os << "scenario " << id << ": " << workload << " x "
       << core::orgName(org) << ", " << simInstructions << " instr";
    if (fastForward > 0)
        os << " (+" << fastForward << " ff)";
    os << ", seed " << seed;
    if (combinedL1)
        os << ", combined-l1";
    if (liteInterval > 0)
        os << ", lite-interval " << liteInterval;
    if (eagerRanges > 0)
        os << ", eager-ranges " << eagerRanges;
    if (!faultSpec.empty())
        os << ", faults '" << faultSpec << "'";
    if (multicore()) {
        os << ", " << cores << " cores";
        if (!mixSpec.empty())
            os << " [" << mixSpec << "]";
        os << (sharedSpace ? ", shared" : ", private");
        if (ctxFlush)
            os << ", ctx-flush";
        if (remapInterval > 0)
            os << ", remap-interval " << remapInterval;
        if (!coherence.empty())
            os << ", coherence " << coherence;
    }
    if (!vmMode.empty()) {
        os << ", vm " << vmMode;
        if (vmMode == "paged")
            os << '/' << hostPages;
    }
    if (hasL3()) {
        os << ", l3 " << l3Mode;
        if (!l3Policy.empty())
            os << '/' << l3Policy;
        if (l3PromoteStreak > 0)
            os << "/streak" << l3PromoteStreak;
    }
    return os.str();
}

Result<Scenario>
scenarioFromJson(std::string_view text)
{
    const auto parsed = obs::parseJson(text);
    if (!parsed.ok())
        return parsed.status();
    const auto &json = parsed.value();
    if (!json.isObject())
        return Status::error("scenario: not a JSON object");

    const auto *schema = json.find("schema");
    if (!schema || !schema->isString())
        return Status::error("scenario: missing string field 'schema'");
    if (schema->string != kScenarioSchema)
        return Status::error("scenario: schema '", schema->string,
                             "' is not '", kScenarioSchema, "'");
    const auto *version = json.find("v");
    if (!version || !version->isNumber())
        return Status::error("scenario: missing numeric field 'v'");
    if (static_cast<int>(version->number) != kScenarioVersion) {
        return Status::error("scenario: version ",
                             static_cast<int>(version->number), " is not ",
                             kScenarioVersion);
    }

    auto knobs = mc::readKnobs(json);
    if (!knobs.ok())
        return Status::error("scenario: ", knobs.status().message());
    Scenario s;
    static_cast<mc::RunSpec &>(s) = std::move(knobs.value());
    const auto *id = json.find("id");
    if (!id || !id->exactUint)
        return Status::error("scenario: missing numeric field 'id'");
    s.id = *id->exactUint;

    // The scenario must describe a constructible machine.
    if (auto st = s.toSimConfig().mmu.validate(); !st.ok())
        return Status::error("scenario: invalid MMU config: ",
                             st.message());
    return s;
}

Result<Scenario>
loadScenario(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot open seed file '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = scenarioFromJson(text.str());
    if (!parsed.ok())
        return Status::error(path, ": ", parsed.status().message());
    return parsed;
}

Status
saveScenario(const Scenario &scenario, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return Status::error("cannot write seed file '", path, "'");
    out << scenario.toJson() << '\n';
    out.flush();
    if (!out.good())
        return Status::error("error writing seed file '", path, "'");
    return Status();
}

} // namespace eat::qa
