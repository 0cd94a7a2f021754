/**
 * @file
 * eatreport: the energy-provenance analyzer.
 *
 *   eatreport --prov=run.prov.jsonl
 *   eatreport --prov=run.prov.jsonl --reconcile [--telemetry=run.jsonl]
 *   eatreport --prov=a.prov.jsonl --diff=b.prov.jsonl
 *   eatreport --prov=run.prov.jsonl --chrome-out=run.trace.json
 *
 * Reads the JSONL stream eatsim --provenance writes and renders:
 *
 *  - the per-core energy breakdown by structure, and the full
 *    structure x event-kind x page-size decomposition;
 *  - percentile summaries of the per-translation energy, walk depth,
 *    inter-miss reuse distance, and shootdown fan-out histograms;
 *  - with --diff, a Figure-10-style comparison of two runs (pJ per
 *    kilo-instruction per structure, plus the normalized total);
 *  - with --chrome-out, a Chrome trace-event export of the stream's
 *    translation/resize/interval/shootdown events on per-core tracks,
 *    rendered by obs::TraceWriter (events past its cap are counted and
 *    reported, not written);
 *  - with --reconcile, the exact-accounting check: the written events,
 *    re-summed with the sink's own book (obs::ProvCoreTotals::add),
 *    must reproduce the trailing summary record bit for bit, core by
 *    core and field by field (and, with --telemetry, every telemetry
 *    dynamic_pj row must equal its interval marker exactly).
 *    Reconciliation requires an unsampled stream (sample_every == 1).
 *
 * The summary record is read with obs::provSummaryFromJson(); a record
 * it refuses (an unknown structure, a dynamic_pj that is not the sum
 * of its core's rows, ...) is a hard error in every mode. A torn final
 * line (crashed producer) is tolerated with a warning; malformed lines
 * anywhere else are a hard error.
 *
 * Exit status: 0 on success (reconciliation included), 1 on a runtime
 * error or a failed check, 2 on bad usage.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hh"
#include "obs/provenance.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "stats/table.hh"

namespace
{

using namespace eat;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --prov=PATH [options]\n"
        "\n"
        "options:\n"
        "  --prov=PATH        provenance JSONL (eatsim --provenance)\n"
        "  --telemetry=PATH   cross-check interval markers against the\n"
        "                     telemetry stream's dynamic_pj rows\n"
        "  --diff=PATH        second provenance stream: print a\n"
        "                     Figure-10-style comparison\n"
        "  --chrome-out=PATH  export a Chrome trace (per-core tracks)\n"
        "  --reconcile        re-sum the events and require bit-exact\n"
        "                     agreement with the summary record\n",
        argv0);
    std::exit(2);
}

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "eatreport: %s\n", msg.c_str());
    std::exit(1);
}

double
num(const obs::JsonValue &o, std::string_view key, double fallback = 0.0)
{
    const obs::JsonValue *v = o.find(key);
    return v && v->isNumber() ? v->number : fallback;
}

std::uint64_t
count(const obs::JsonValue &o, std::string_view key)
{
    return static_cast<std::uint64_t>(num(o, key));
}

std::string
str(const obs::JsonValue &o, std::string_view key)
{
    const obs::JsonValue *v = o.find(key);
    return v && v->isString() ? v->string : std::string();
}

/** The Chrome export: one process per core, one track per event
 *  family. Every core's clock reads @c instr, which holds the stamp
 *  of the line being recorded: that core's instruction count. The
 *  writer keeps that address, so the export is never copied. */
struct ChromeExport
{
    ChromeExport() = default;
    ChromeExport(const ChromeExport &) = delete;
    ChromeExport &operator=(const ChromeExport &) = delete;

    obs::TraceWriter trace;
    std::uint64_t instr = 0;
};

/** Everything loaded from one provenance stream. */
struct Stream
{
    std::string path;
    std::uint64_t eventLines = 0;
    std::uint64_t maxInstr = 0;
    std::uint64_t translationEvents = 0;
    bool torn = false;

    /** The events re-summed per core with the sink's own book, in
     *  stream order. */
    std::vector<obs::ProvCoreTotals> cores;

    /** (struct, kind, psShift) -> {count, pJ}. */
    std::map<std::tuple<unsigned, unsigned, unsigned>,
             std::pair<std::uint64_t, PicoJoules>>
        breakdown;

    /** Translation resolution source -> {count, pJ}. */
    std::map<std::string, std::pair<std::uint64_t, PicoJoules>> bySource;

    /** Interval markers: (core, interval) -> exact delta pJ. */
    std::map<std::pair<unsigned, std::uint64_t>, PicoJoules> intervals;

    /** The trailing summary record. Unlike the event sums its totals
     *  survive sampling, so the report and diff prefer them. */
    std::optional<obs::ProvSummary> summary;

    obs::ProvCoreTotals &
    core(unsigned c)
    {
        if (c >= cores.size())
            cores.resize(c + 1);
        return cores[c];
    }

    /** The most trustworthy totals: exact summary when present,
     *  otherwise the re-summed events (a torn stream). */
    const std::vector<obs::ProvCoreTotals> &
    best() const
    {
        return summary ? summary->cores : cores;
    }

    PicoJoules
    totalDynamicPj() const
    {
        PicoJoules total = 0.0;
        for (const obs::ProvCoreTotals &c : best())
            total += c.canonicalDynamicPj();
        return total;
    }

    double
    pjPerKiloInstr() const
    {
        // maxInstr is the last measured-window instruction stamp seen,
        // i.e. the retired-instruction count of the longest core.
        const double instr =
            static_cast<double>(std::max<std::uint64_t>(maxInstr, 1)) *
            static_cast<double>(std::max<std::size_t>(best().size(), 1));
        return totalDynamicPj() * 1000.0 / instr;
    }
};

void
recordEvent(Stream &s, const obs::JsonValue &o, ChromeExport *chrome)
{
    const std::string kindName = str(o, "k");
    const obs::ProvKind kind = obs::provKindFromName(kindName);
    if (kind == obs::ProvKind::Count)
        fail(s.path + ": unknown event kind '" + kindName + "'");
    const unsigned core = static_cast<unsigned>(count(o, "core"));
    const std::uint64_t instr = count(o, "i");
    const double pj = num(o, "pj");
    s.maxInstr = std::max(s.maxInstr, instr);
    ++s.eventLines;

    // Shootdown/CohProbe/Translation/Interval lines carry no "s"
    // field; give them a stable display structure instead of the
    // Count sentinel.
    obs::ProvStruct structId = obs::provStructFromName(str(o, "s"));
    if (structId == obs::ProvStruct::Count) {
        if (kind == obs::ProvKind::Shootdown)
            structId = obs::ProvStruct::Shootdown;
        else if (kind == obs::ProvKind::CohProbe)
            structId = obs::ProvStruct::Coherence;
        else
            structId = obs::ProvStruct::None;
    }
    const unsigned structIdx = static_cast<unsigned>(structId);
    const unsigned ps = static_cast<unsigned>(count(o, "ps"));
    const bool perStructure =
        kind == obs::ProvKind::Probe || kind == obs::ProvKind::WalkRef ||
        kind == obs::ProvKind::Fill || kind == obs::ProvKind::Evict;
    if (perStructure && structIdx >= obs::kProvMeteredStructs)
        fail(s.path + ": " + kindName + " with bad structure");
    s.core(core).add(kind, structId, pj);

    if (kind == obs::ProvKind::Interval) {
        s.intervals[{core, count(o, "interval")}] = pj;
    } else {
        if (kind == obs::ProvKind::Translation) {
            ++s.translationEvents;
            auto &src = s.bySource[str(o, "src")];
            ++src.first;
            src.second += pj;
        }
        auto &cell = s.breakdown[{structIdx,
                                  static_cast<unsigned>(kind), ps}];
        ++cell.first;
        cell.second += pj;
    }

    if (!chrome)
        return;
    chrome->instr = instr;
    obs::TraceWriter &trace = chrome->trace;
    trace.registerClock(core, &chrome->instr);
    obs::JsonObject args;
    switch (kind) {
      case obs::ProvKind::Translation:
        args.put("src", str(o, "src"));
        args.put("pj", pj);
        if (ps)
            args.put("page_shift", ps);
        trace.instant(trace.track("translations", core),
                      "translate:" + str(o, "src"), args.str());
        break;
      case obs::ProvKind::Resize:
        args.put("from_ways", count(o, "from"));
        args.put("to_ways", count(o, "to"));
        trace.instant(trace.track("lite resizes", core),
                      "resize:" + str(o, "s"), args.str());
        break;
      case obs::ProvKind::Shootdown:
        args.put("remote_cores", count(o, "remote"));
        args.put("entries", count(o, "entries"));
        args.put("pj", pj);
        trace.instant(trace.track("shootdowns", core), "shootdown",
                      args.str());
        break;
      case obs::ProvKind::CohProbe:
        args.put("targeted_cores", count(o, "targets"));
        args.put("entries", count(o, "entries"));
        args.put("version", count(o, "version"));
        args.put("pj", pj);
        trace.instant(trace.track("shootdowns", core), "coh_probe",
                      args.str());
        break;
      case obs::ProvKind::Interval:
        trace.counter(trace.track("intervals", core), "interval_pj", pj);
        break;
      default:
        break;
    }
}

Stream
loadStream(const std::string &path, ChromeExport *chrome)
{
    std::ifstream in(path);
    if (!in)
        fail("cannot open provenance file '" + path + "'");

    Stream s;
    s.path = path;
    std::string line;
    std::uint64_t lineNo = 0;
    bool pendingBad = false;
    std::uint64_t badLineNo = 0;

    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        // A malformed line is only forgivable as the *last* line of the
        // stream (a producer that died mid-write); defer judgment.
        if (pendingBad)
            fail(path + ":" + std::to_string(badLineNo) +
                 ": malformed JSON line");
        auto parsed = obs::parseJson(line);
        if (!parsed.ok()) {
            pendingBad = true;
            badLineNo = lineNo;
            continue;
        }
        const obs::JsonValue &o = parsed.value();
        const std::string schema = str(o, "schema");
        if (schema == obs::kProvEventSchema) {
            recordEvent(s, o, chrome);
        } else if (schema == obs::kProvSummarySchema) {
            auto summary = obs::provSummaryFromJson(o);
            if (!summary.ok())
                fail(path + ":" + std::to_string(lineNo) + ": " +
                     summary.status().message());
            s.summary = std::move(summary.value());
        } else {
            fail(path + ":" + std::to_string(lineNo) +
                 ": unknown schema '" + schema +
                 "' (expected eat.prov.event / eat.prov.summary)");
        }
    }
    if (pendingBad) {
        s.torn = true;
        std::fprintf(stderr,
                     "eatreport: warning: %s:%llu: torn final line "
                     "ignored\n",
                     path.c_str(),
                     static_cast<unsigned long long>(badLineNo));
    }
    if (s.eventLines == 0 && !s.summary)
        fail(path + ": no provenance records found");
    return s;
}

// --- histogram helpers ---

/** Index of the bucket holding quantile @p q (0..1); @p h not empty. */
std::size_t
histQuantile(const stats::Histogram &h, double q)
{
    const double target = q * static_cast<double>(h.total());
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        seen += h.bucketCount(i);
        if (static_cast<double>(seen) >= target)
            return i;
    }
    return h.numBuckets() - 1;
}

/** Render a log2 bucket index as its value range ("0" or "[2^a,2^b)"). */
std::string
log2BucketLabel(std::size_t bucket)
{
    if (bucket == 0)
        return "<1";
    return "[2^" + std::to_string(bucket - 1) + ",2^" +
           std::to_string(bucket) + ")";
}

void
printHistogramSummaries(const obs::ProvSummary &summary)
{
    struct Spec
    {
        const stats::Histogram &hist;
        const char *title;
        bool log2;
    };
    const Spec specs[] = {
        {summary.walkDepth, "page-walk memory refs / translation", false},
        {summary.translationPj, "pJ / translation", true},
        {summary.reuseDistance, "instructions between L1 misses", true},
        {summary.shootdownFanout, "entries invalidated / shootdown",
         true},
    };
    std::cout << "\ndistributions (p50 / p90 / p99):\n";
    stats::TextTable table({"distribution", "samples", "p50", "p90",
                            "p99"});
    for (const auto &spec : specs) {
        if (spec.hist.total() == 0)
            continue;
        auto label = [&spec](std::size_t bucket) {
            return spec.log2 ? log2BucketLabel(bucket)
                             : std::to_string(bucket);
        };
        table.addRow({spec.title, std::to_string(spec.hist.total()),
                      label(histQuantile(spec.hist, 0.50)),
                      label(histQuantile(spec.hist, 0.90)),
                      label(histQuantile(spec.hist, 0.99))});
    }
    table.print(std::cout);
}

// --- the default report ---

void
printReport(const Stream &s)
{
    std::cout << "provenance stream: " << s.path << "\n";
    std::cout << "events: " << s.eventLines << " lines, "
              << s.translationEvents << " translation paths";
    if (s.summary) {
        std::cout << " (run total " << s.summary->translations
                  << " translations, 1-in-" << s.summary->sampleEvery
                  << " sampling)";
    }
    std::cout << "\n";
    if (s.torn)
        std::cout << "note: stream ends in a torn line (producer died "
                     "mid-write)\n";

    const auto &cores = s.best();
    for (unsigned c = 0; c < cores.size(); ++c) {
        const obs::ProvCoreTotals &agg = cores[c];
        std::cout << "\ncore " << c << " energy by structure ("
                  << (s.summary ? "exact summary totals"
                                : "re-summed events")
                  << "):\n";
        stats::TextTable table({"structure", "reads", "writes", "evicts",
                                "read pJ", "write pJ", "share"});
        const PicoJoules total = agg.canonicalDynamicPj();
        for (unsigned i = 0; i < obs::kProvMeteredStructs; ++i) {
            const auto &t = agg.structs[i];
            if (t.reads == 0 && t.writes == 0 && t.evicts == 0)
                continue;
            const PicoJoules pj = t.readPj + t.writePj;
            table.addRow(
                {std::string(obs::provStructName(
                     static_cast<obs::ProvStruct>(i))),
                 std::to_string(t.reads), std::to_string(t.writes),
                 std::to_string(t.evicts),
                 stats::TextTable::num(t.readPj, 0),
                 stats::TextTable::num(t.writePj, 0),
                 stats::TextTable::percent(total > 0.0 ? pj / total
                                                       : 0.0)});
        }
        table.print(std::cout);
        if (agg.shootdowns > 0) {
            std::cout << "core " << c << " shootdowns: "
                      << agg.shootdowns << " broadcasts, "
                      << stats::TextTable::num(agg.shootdownPj, 0)
                      << " pJ\n";
        }
        if (agg.cohProbes > 0) {
            std::cout << "core " << c << " hw coherence: "
                      << agg.cohProbes << " filter probes, "
                      << stats::TextTable::num(agg.cohPj, 0)
                      << " pJ\n";
        }
    }

    std::cout << "\nstructure x event-kind x page-size:\n";
    stats::TextTable cells({"structure", "kind", "page", "count", "pJ"});
    for (const auto &[key, cell] : s.breakdown) {
        const auto [structIdx, kindIdx, ps] = key;
        const auto structId = static_cast<obs::ProvStruct>(structIdx);
        cells.addRow(
            {std::string(obs::provStructName(structId)),
             std::string(obs::provKindName(
                 static_cast<obs::ProvKind>(kindIdx))),
             ps == 0 ? "-" : ("2^" + std::to_string(ps)),
             std::to_string(cell.first),
             stats::TextTable::num(cell.second, 0)});
    }
    cells.print(std::cout);

    if (!s.bySource.empty()) {
        std::cout << "\ntranslations by resolution source:\n";
        stats::TextTable src({"source", "count", "pJ", "pJ/translation"});
        for (const auto &[name, cell] : s.bySource) {
            src.addRow({name, std::to_string(cell.first),
                        stats::TextTable::num(cell.second, 0),
                        stats::TextTable::num(
                            cell.first ? cell.second /
                                             static_cast<double>(
                                                 cell.first)
                                       : 0.0,
                            2)});
        }
        src.print(std::cout);
    }

    if (s.summary)
        printHistogramSummaries(*s.summary);

    std::cout << "\ntotal_dynamic_pj=" << obs::jsonNumberExact(
                     s.totalDynamicPj())
              << " pj_per_ki=" << stats::TextTable::num(
                     s.pjPerKiloInstr(), 3)
              << "\n";
}

// --- the Figure-10-style diff ---

void
printDiff(const Stream &a, const Stream &b)
{
    std::cout << "\nFigure-10-style diff (pJ per kilo-instruction):\n";
    stats::TextTable table({"structure", "A", "B", "B/A"});
    auto perKi = [](const Stream &s, unsigned structIdx) {
        PicoJoules pj = 0.0;
        for (const auto &core : s.best()) {
            pj += core.structs[structIdx].readPj +
                  core.structs[structIdx].writePj;
        }
        const double instr =
            static_cast<double>(std::max<std::uint64_t>(s.maxInstr, 1)) *
            static_cast<double>(
                std::max<std::size_t>(s.best().size(), 1));
        return pj * 1000.0 / instr;
    };
    for (unsigned i = 0; i < obs::kProvMeteredStructs; ++i) {
        const double av = perKi(a, i);
        const double bv = perKi(b, i);
        if (av == 0.0 && bv == 0.0)
            continue;
        table.addRow({std::string(obs::provStructName(
                          static_cast<obs::ProvStruct>(i))),
                      stats::TextTable::num(av, 1),
                      stats::TextTable::num(bv, 1),
                      av > 0.0 ? stats::TextTable::num(bv / av, 3)
                               : "-"});
    }
    table.print(std::cout);

    const double aKi = a.pjPerKiloInstr();
    const double bKi = b.pjPerKiloInstr();
    std::cout << "fig10: A=" << a.path << " B=" << b.path
              << " A_pj_per_ki=" << stats::TextTable::num(aKi, 3)
              << " B_pj_per_ki=" << stats::TextTable::num(bKi, 3)
              << " ratio="
              << (aKi > 0.0 ? stats::TextTable::num(bKi / aKi, 4) : "-")
              << "\n";
}

// --- reconciliation ---

/** One failed expectation -> message; empty return = pass. */
std::vector<std::string>
reconcile(const Stream &s)
{
    std::vector<std::string> errors;
    if (!s.summary) {
        errors.push_back("stream has no trailing summary record "
                         "(torn run?)");
        return errors;
    }
    const obs::ProvSummary &summary = *s.summary;
    if (summary.sampleEvery > 1) {
        errors.push_back("stream was sampled (1-in-" +
                         std::to_string(summary.sampleEvery) +
                         "); reconciliation requires --prov-sample=1");
        return errors;
    }
    if (s.torn) {
        errors.push_back("stream ends in a torn line; the event sum is "
                         "incomplete");
        return errors;
    }

    auto counts = [&errors](const std::string &where, const char *what,
                            std::uint64_t event, std::uint64_t total) {
        if (event != total)
            errors.push_back(where + ": event " + what + " " +
                             std::to_string(event) + " != summary " +
                             std::to_string(total));
    };
    auto energies = [&errors](const std::string &where, const char *what,
                              PicoJoules event, PicoJoules total) {
        if (event != total)
            errors.push_back(where + ": event " + what + " energy " +
                             obs::jsonNumberExact(event) +
                             " pJ != summary " +
                             obs::jsonNumberExact(total) + " pJ (exact)");
    };
    // A core or structure one side lacks is a zero book there.
    static const obs::ProvCoreTotals kZero{};
    const std::size_t cores = std::max(s.cores.size(), summary.cores.size());
    for (std::size_t c = 0; c < cores; ++c) {
        const auto &event = c < s.cores.size() ? s.cores[c] : kZero;
        const auto &total =
            c < summary.cores.size() ? summary.cores[c] : kZero;
        const std::string tag = "core " + std::to_string(c);
        for (unsigned i = 0; i < obs::kProvMeteredStructs; ++i) {
            const std::string where =
                tag + " " +
                std::string(obs::provStructName(
                    static_cast<obs::ProvStruct>(i)));
            const obs::ProvStructTotals &e = event.structs[i];
            const obs::ProvStructTotals &t = total.structs[i];
            counts(where, "reads", e.reads, t.reads);
            counts(where, "writes", e.writes, t.writes);
            counts(where, "evicts", e.evicts, t.evicts);
            energies(where, "read", e.readPj, t.readPj);
            energies(where, "write", e.writePj, t.writePj);
        }
        counts(tag, "shootdowns", event.shootdowns, total.shootdowns);
        energies(tag, "shootdown", event.shootdownPj, total.shootdownPj);
        counts(tag, "coherence probes", event.cohProbes, total.cohProbes);
        energies(tag, "coherence", event.cohPj, total.cohPj);
    }

    if (s.eventLines != summary.eventsWritten)
        errors.push_back("stream holds " + std::to_string(s.eventLines) +
                         " event lines but the summary counted " +
                         std::to_string(summary.eventsWritten) +
                         " written");
    if (s.translationEvents != summary.translations)
        errors.push_back("stream holds " +
                         std::to_string(s.translationEvents) +
                         " translation events but the run made " +
                         std::to_string(summary.translations) +
                         " translations");
    return errors;
}

/** Match telemetry dynamic_pj rows against the interval markers. */
std::vector<std::string>
reconcileTelemetry(const Stream &s, const std::string &path)
{
    std::vector<std::string> errors;
    std::ifstream in(path);
    if (!in)
        fail("cannot open telemetry file '" + path + "'");

    std::string line;
    std::uint64_t lineNo = 0;
    std::uint64_t rows = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        auto parsed = obs::parseJson(line);
        if (!parsed.ok()) {
            fail(path + ":" + std::to_string(lineNo) +
                 ": malformed telemetry line");
        }
        const obs::JsonValue &o = parsed.value();
        if (str(o, "schema") != obs::kTelemetrySchema)
            continue;
        ++rows;
        const unsigned core = static_cast<unsigned>(count(o, "core"));
        const std::uint64_t interval = count(o, "interval");
        const auto it = s.intervals.find({core, interval});
        if (it == s.intervals.end()) {
            errors.push_back("telemetry core " + std::to_string(core) +
                             " interval " + std::to_string(interval) +
                             " has no provenance interval marker");
            continue;
        }
        const double telemetryPj = num(o, "dynamic_pj");
        if (it->second != telemetryPj) {
            errors.push_back(
                "core " + std::to_string(core) + " interval " +
                std::to_string(interval) + ": telemetry dynamic_pj " +
                obs::jsonNumberExact(telemetryPj) +
                " != interval marker " +
                obs::jsonNumberExact(it->second) + " (exact)");
        }
    }
    if (rows != s.intervals.size()) {
        errors.push_back("telemetry has " + std::to_string(rows) +
                         " interval rows but the provenance stream has " +
                         std::to_string(s.intervals.size()) +
                         " interval markers");
    }
    return errors;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string provPath, telemetryPath, diffPath, chromePath;
    bool doReconcile = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        if (const char *v = value("--prov=")) {
            provPath = v;
        } else if (const char *v2 = value("--telemetry=")) {
            telemetryPath = v2;
        } else if (const char *v3 = value("--diff=")) {
            diffPath = v3;
        } else if (const char *v4 = value("--chrome-out=")) {
            chromePath = v4;
        } else if (arg == "--reconcile") {
            doReconcile = true;
        } else {
            usage(argv[0]);
        }
    }
    if (provPath.empty())
        usage(argv[0]);
    if (!telemetryPath.empty() && !doReconcile) {
        std::fprintf(stderr,
                     "eatreport: --telemetry only applies with "
                     "--reconcile\n");
        return 2;
    }

    ChromeExport chrome;
    const Stream stream =
        loadStream(provPath, chromePath.empty() ? nullptr : &chrome);
    printReport(stream);

    if (!diffPath.empty()) {
        const Stream other = loadStream(diffPath, nullptr);
        printDiff(stream, other);
    }
    if (!chromePath.empty()) {
        const obs::TraceWriter &trace = chrome.trace;
        const Status written = trace.write(chromePath);
        if (!written.ok())
            fail(written.message());
        std::cout << "chrome trace: "
                  << trace.eventsRecorded() - trace.eventsDropped()
                  << " events, " << trace.eventsDropped()
                  << " dropped -> " << chromePath << "\n";
    }

    if (doReconcile) {
        auto errors = reconcile(stream);
        if (!telemetryPath.empty() && errors.empty()) {
            auto more = reconcileTelemetry(stream, telemetryPath);
            errors.insert(errors.end(), more.begin(), more.end());
        }
        if (!errors.empty()) {
            for (const auto &e : errors)
                std::fprintf(stderr, "eatreport: reconcile: %s\n",
                             e.c_str());
            std::fprintf(stderr,
                         "eatreport: reconciliation FAILED (%zu "
                         "mismatches)\n",
                         errors.size());
            return 1;
        }
        std::cout << "reconcile: event sums match the summary record "
                     "bit for bit";
        if (!telemetryPath.empty())
            std::cout << " (telemetry rows match their interval "
                         "markers)";
        std::cout << "\n";
    }
    return 0;
}
