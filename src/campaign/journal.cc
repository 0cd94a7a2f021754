#include "campaign/journal.hh"

#include <cstdio>
#include <map>

namespace eat::campaign
{

namespace
{

std::string
renderMeta(const std::string &fingerprint)
{
    obs::JsonObject json;
    json.put("schema", kJournalSchema);
    json.put("v", kJournalVersion);
    json.put("kind", "meta");
    json.put("fingerprint", fingerprint);
    return json.str();
}

std::string
renderEntry(const JournalEntry &entry)
{
    obs::JsonObject json;
    json.put("schema", kJournalSchema);
    json.put("v", kJournalVersion);
    json.put("kind", "cell");
    json.put("key", entry.key);
    json.put("class", failureClassName(entry.outcome.failure));
    json.put("exit", entry.outcome.exitCode);
    json.put("signal", entry.outcome.termSignal);
    json.put("attempts", entry.outcome.attempts);
    json.put("quarantined", entry.outcome.quarantined);
    json.put("error", entry.outcome.spawnError);
    json.put("payload", entry.outcome.payload);
    return json.str();
}

const std::string *
findString(const obs::JsonValue &record, std::string_view key)
{
    const obs::JsonValue *v = record.find(key);
    return (v && v->isString()) ? &v->string : nullptr;
}

/** Parse one journal line back into a JournalEntry. */
Result<JournalEntry>
parseEntry(const obs::JsonValue &record)
{
    const std::string *key = findString(record, "key");
    const std::string *cls = findString(record, "class");
    if (!key || key->empty() || !cls)
        return Status::error("cell record lacks key/class");
    const auto failure = parseFailureClass(*cls);
    if (!failure.ok())
        return failure.status();
    JournalEntry entry{*key, {}};
    TaskOutcome &outcome = entry.outcome;
    outcome.failure = failure.value();
    if (const auto *v = record.find("exit"); v && v->isNumber())
        outcome.exitCode = static_cast<int>(v->number);
    if (const auto *v = record.find("signal"); v && v->isNumber())
        outcome.termSignal = static_cast<int>(v->number);
    if (const auto *v = record.find("attempts"); v && v->isNumber())
        outcome.attempts = static_cast<unsigned>(v->number);
    if (const auto *v = record.find("quarantined"); v && v->isBool())
        outcome.quarantined = v->boolean;
    if (const std::string *s = findString(record, "error"))
        outcome.spawnError = *s;
    if (const std::string *s = findString(record, "payload"))
        outcome.payload = *s;
    return entry;
}

} // namespace

Result<CheckpointJournal>
CheckpointJournal::create(const std::string &path,
                          const std::string &fingerprint)
{
    auto writer = JsonlWriter::open(path, JsonlWriter::Mode::Truncate);
    if (!writer.ok())
        return writer.status();
    CheckpointJournal journal;
    journal.writer_ = std::move(writer.value());
    if (Status s = journal.writer_.append(renderMeta(fingerprint));
        !s.ok()) {
        return s;
    }
    return journal;
}

Result<CheckpointJournal>
CheckpointJournal::load(const std::string &path,
                        const std::string &fingerprint, Recovered &out)
{
    out = Recovered{};
    {
        std::ifstream probe(path);
        if (!probe)
            return create(path, fingerprint); // nothing to resume from
    }

    auto file = readJsonl(path);
    if (!file.ok()) {
        return Status::error("checkpoint journal ", path, ": ",
                             file.status().message());
    }
    out.truncatedTail = file.value().truncatedTail;

    // Validate the meta record: resuming under the wrong grid would
    // stitch incompatible results together byte-for-byte convincingly.
    const auto &records = file.value().records;
    if (records.empty())
        return create(path, fingerprint); // header never landed
    {
        const std::string *kind = findString(records.front(), "kind");
        const std::string *schema = findString(records.front(), "schema");
        if (!schema || *schema != kJournalSchema || !kind ||
            *kind != "meta") {
            return Status::error("checkpoint journal ", path,
                                 ": not a campaign journal");
        }
        const obs::JsonValue *version = records.front().find("v");
        if (!version || !version->isNumber() ||
            version->number != kJournalVersion) {
            return Status::error("checkpoint journal ", path,
                                 " is not version ", kJournalVersion);
        }
        const std::string *fp = findString(records.front(), "fingerprint");
        if (!fp || *fp != fingerprint) {
            return Status::error(
                "checkpoint journal ", path,
                " belongs to a different campaign (recorded '",
                fp ? *fp : "", "', expected '", fingerprint,
                "'); pass a fresh --checkpoint or drop --resume");
        }
    }

    // Recover: last entry per key wins, first-seen order preserved.
    std::map<std::string, std::size_t> byKey;
    for (std::size_t i = 1; i < records.size(); ++i) {
        const std::string *kind = findString(records[i], "kind");
        if (!kind || *kind != "cell")
            continue;
        auto entry = parseEntry(records[i]);
        if (!entry.ok()) {
            return Status::error("checkpoint journal ", path, ": ",
                                 entry.status().message());
        }
        const auto it = byKey.find(entry.value().key);
        if (it == byKey.end()) {
            byKey.emplace(entry.value().key, out.entries.size());
            out.entries.push_back(std::move(entry.value()));
        } else {
            out.entries[it->second] = std::move(entry.value());
        }
    }

    // Compact: rewrite meta + surviving entries through a temp file and
    // rename into place. This drops the truncated tail and duplicate
    // keys, so the journal stays bounded and clean across any number of
    // kill/resume cycles.
    const std::string tmp = path + ".tmp";
    {
        auto writer = JsonlWriter::open(tmp, JsonlWriter::Mode::Truncate);
        if (!writer.ok())
            return writer.status();
        if (Status s = writer.value().append(renderMeta(fingerprint));
            !s.ok()) {
            return s;
        }
        for (const auto &entry : out.entries) {
            if (Status s = writer.value().append(renderEntry(entry));
                !s.ok()) {
                return s;
            }
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return Status::error("cannot rename ", tmp, " to ", path);

    auto writer = JsonlWriter::open(path, JsonlWriter::Mode::Append);
    if (!writer.ok())
        return writer.status();
    CheckpointJournal journal;
    journal.writer_ = std::move(writer.value());
    return journal;
}

Status
CheckpointJournal::append(const JournalEntry &entry)
{
    Status s = writer_.append(renderEntry(entry));
    if (s.ok())
        ++cells_;
    return s;
}

} // namespace eat::campaign
