/**
 * @file
 * Observability subsystem tests: JSON substrate, metric registry
 * naming/uniqueness, telemetry JSONL round-trips, Chrome-trace
 * well-formedness, and the stage profiler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "stats/histogram.hh"
#include "scratch_dir.hh"

namespace eat::obs
{
namespace
{

// --------------------------------------------------------------------
// JSON substrate
// --------------------------------------------------------------------

TEST(Json, QuoteEscapes)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonQuote("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(jsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, NumberFormat)
{
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(0.0), "0");
    // JSON cannot express non-finite values: every path prints 0.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double v : {kInf, -kInf, std::nan(""), -std::nan("")}) {
        EXPECT_EQ(jsonNumber(v), "0");
        EXPECT_EQ(jsonNumberExact(v), "0");
        JsonObject o;
        o.put("a", v);
        o.putExact("b", v);
        EXPECT_EQ(o.str(), "{\"a\":0,\"b\":0}");
    }
}

/** The reference the serializer must match: printf's %.<precision>g. */
std::string
printfG(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    return buf;
}

/** Every way a double reaches the page, against the printf reference.
 *  @return "" when all four agree, else what differed. */
std::string
numberMismatch(double v)
{
    const std::string g12 = printfG(v, 12);
    const std::string g17 = printfG(v, 17);
    JsonObject o;
    o.put("x", v);
    JsonObject exact;
    exact.putExact("x", v);
    if (jsonNumber(v) != g12)
        return "jsonNumber " + jsonNumber(v) + " vs %.12g " + g12;
    if (jsonNumberExact(v) != g17)
        return "jsonNumberExact " + jsonNumberExact(v) + " vs %.17g " + g17;
    if (o.str() != "{\"x\":" + g12 + "}")
        return "put " + o.str() + " vs %.12g " + g12;
    if (exact.str() != "{\"x\":" + g17 + "}")
        return "putExact " + exact.str() + " vs %.17g " + g17;
    return "";
}

TEST(Json, NumbersPrintTheBytesOfPrintfG)
{
    constexpr double kMax = std::numeric_limits<double>::max();
    constexpr double kMin = std::numeric_limits<double>::min();
    constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
    const double edges[] = {
        0.0, -0.0, kDenorm, -kDenorm, 3 * kDenorm,
        // the largest subnormal
        std::bit_cast<double>(std::uint64_t{0x000fffffffffffff}),
        kMin, -kMin, std::nextafter(kMin, 0.0), kMax, -kMax,
        9007199254740992.0,        // 2^53
        9007199254740994.0,        // 2^53 + 2
        18446744073709551616.0,    // 2^64
        123456789012345678901.0, 1e22, 1e23, -1e300, 1e-300,
        0.1, 1.0 / 3.0, 1.5, 100.0, 1e12, 1e17, 999999999999.5,
        0.000123456789012345678,
    };
    for (const double v : edges)
        EXPECT_EQ(numberMismatch(v), "") << std::hexfloat << v;

    std::mt19937_64 rng(20260117);
    std::size_t checked = 0;
    while (checked < 200'000) {
        const double v = std::bit_cast<double>(rng());
        if (!std::isfinite(v))
            continue;
        ++checked;
        ASSERT_EQ(numberMismatch(v), "") << std::hexfloat << v;
    }
}

TEST(Json, IntegersPrintAsToString)
{
    // Includes the bit patterns of INT_MIN, -1 and INT64_MIN.
    std::vector<std::uint64_t> values = {
        0, 1, 9, 10, 0x80000000u, 0xffffffffu, 0x100000000u,
        std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()};
    std::mt19937_64 rng(7);
    for (int i = 0; i < 10'000; ++i)
        values.push_back(rng() >> (rng() % 64));
    for (const std::uint64_t u : values) {
        const auto i64 = static_cast<std::int64_t>(u);
        const auto i32 = static_cast<int>(u);
        const auto u32 = static_cast<unsigned>(u);
        JsonObject o;
        o.put("u", u);
        o.put("i", i64);
        o.put("n", i32);
        o.put("w", u32);
        EXPECT_EQ(o.str(), "{\"u\":" + std::to_string(u) +
                               ",\"i\":" + std::to_string(i64) +
                               ",\"n\":" + std::to_string(i32) +
                               ",\"w\":" + std::to_string(u32) + "}");
    }
}

TEST(Json, ClearedObjectWritesWholeLines)
{
    std::ostringstream os;
    JsonObject o;
    o.put("a", 1);
    o.writeLine(os);
    // writeLine leaves the object as it was: str() and more members
    // still work.
    EXPECT_EQ(o.str(), "{\"a\":1}");
    o.clear();
    EXPECT_TRUE(o.empty());
    o.put("b", "x\ty");
    o.writeLine(os);
    EXPECT_EQ(os.str(), "{\"a\":1}\n{\"b\":\"x\\ty\"}\n");
}

TEST(Json, ObjectBuilds)
{
    JsonObject o;
    EXPECT_TRUE(o.empty());
    EXPECT_EQ(o.str(), "{}");
    o.put("s", "x");
    o.put("n", std::uint64_t{7});
    o.put("b", true);
    JsonObject inner;
    inner.put("k", 1.25);
    o.putRaw("o", inner.str());
    EXPECT_EQ(o.str(), "{\"s\":\"x\",\"n\":7,\"b\":true,"
                       "\"o\":{\"k\":1.25}}");
}

TEST(Json, ParseRoundTrip)
{
    JsonObject o;
    o.put("name", "L1-4KB \"TLB\"\n");
    o.put("count", std::uint64_t{12345});
    o.put("ratio", 0.375);
    o.put("flag", false);
    o.putRaw("list", "[1,2,3]");

    const auto parsed = parseJson(o.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const JsonValue &v = parsed.value();
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("name")->string, "L1-4KB \"TLB\"\n");
    EXPECT_DOUBLE_EQ(v.find("count")->number, 12345.0);
    EXPECT_DOUBLE_EQ(v.find("ratio")->number, 0.375);
    EXPECT_FALSE(v.find("flag")->boolean);
    ASSERT_TRUE(v.find("list")->isArray());
    EXPECT_EQ(v.find("list")->array.size(), 3u);
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, ParseKeepsNonNegativeIntegersExact)
{
    // Doubles round integers beyond 2^53; 64-bit seeds must not move.
    const auto big = obs::parseJson("18446744073709551615");
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(big.value().exactUint, 18446744073709551615ull);
    EXPECT_EQ(obs::parseJson("9007199254740993").value().exactUint,
              9007199254740993ull);
    for (const char *inexact : {"-1", "1.5", "1e3", "18446744073709551616"})
        EXPECT_FALSE(obs::parseJson(inexact).value().exactUint) << inexact;
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_FALSE(parseJson("").ok());
    EXPECT_FALSE(parseJson("{").ok());
    EXPECT_FALSE(parseJson("{} trailing").ok());
    EXPECT_FALSE(parseJson("{\"a\":1,}").ok());
    EXPECT_FALSE(parseJson("[1 2]").ok());
    EXPECT_FALSE(parseJson("'single'").ok());
}

TEST(Json, ParseUnicodeEscape)
{
    const auto parsed = parseJson("\"a\\u00e9b\"");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().string, "a\xc3\xa9" "b");
}

// --------------------------------------------------------------------
// Metric registry
// --------------------------------------------------------------------

TEST(Metrics, ValidatesNames)
{
    EXPECT_TRUE(isValidMetricName("l1.tlb4k.hits"));
    EXPECT_TRUE(isValidMetricName("energy.dynamic_pj"));
    EXPECT_TRUE(isValidMetricName("x"));
    EXPECT_FALSE(isValidMetricName(""));
    EXPECT_FALSE(isValidMetricName(".leading"));
    EXPECT_FALSE(isValidMetricName("trailing."));
    EXPECT_FALSE(isValidMetricName("double..dot"));
    EXPECT_FALSE(isValidMetricName("Upper.case"));
    EXPECT_FALSE(isValidMetricName("spa ce"));
    EXPECT_FALSE(isValidMetricName("da-sh"));
}

TEST(Metrics, BindsCountersGaugesHistograms)
{
    std::uint64_t hits = 41;
    stats::Histogram hist;
    hist.ensureBuckets(3);
    hist.record(1);
    hist.record(1);
    hist.record(2);

    MetricRegistry reg;
    reg.addCounter("l1.tlb4k.hits", &hits);
    reg.addCounter("derived.total", [&hits] { return hits * 2; });
    reg.addGauge("energy.dynamic_pj", [] { return 12.5; });
    reg.addHistogram("mmu.l1_way_lookups_4k", &hist);

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.contains("l1.tlb4k.hits"));
    EXPECT_FALSE(reg.contains("l1.tlb4k.misses"));

    // Bindings are live: mutating the source changes the reading.
    EXPECT_EQ(reg.counterValue("l1.tlb4k.hits"), 41u);
    ++hits;
    EXPECT_EQ(reg.counterValue("l1.tlb4k.hits"), 42u);
    EXPECT_EQ(reg.counterValue("derived.total"), 84u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("energy.dynamic_pj"), 12.5);

    const auto names = reg.names();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Metrics, PanicsOnDuplicateName)
{
    std::uint64_t c = 0;
    MetricRegistry reg;
    reg.addCounter("a.b", &c);
    EXPECT_THROW(reg.addCounter("a.b", &c), std::logic_error);
    // Kind does not matter: the namespace is shared.
    EXPECT_THROW(reg.addGauge("a.b", [] { return 0.0; }),
                 std::logic_error);
}

TEST(Metrics, PanicsOnMalformedName)
{
    std::uint64_t c = 0;
    MetricRegistry reg;
    EXPECT_THROW(reg.addCounter("Bad.Name", &c), std::logic_error);
    EXPECT_THROW(reg.addCounter("", &c), std::logic_error);
    EXPECT_THROW(reg.addCounter("a..b", &c), std::logic_error);
}

TEST(Metrics, PanicsOnNullBinding)
{
    MetricRegistry reg;
    EXPECT_THROW(reg.addCounter("a.b", static_cast<std::uint64_t *>(
                                           nullptr)),
                 std::logic_error);
    EXPECT_THROW(reg.addHistogram("a.h", nullptr), std::logic_error);
}

TEST(Metrics, WriteJsonParsesAndCarriesSchema)
{
    std::uint64_t c = 7;
    stats::Histogram hist;
    hist.ensureBuckets(2);
    hist.record(0);
    hist.record(1);
    hist.record(1);

    MetricRegistry reg;
    reg.addCounter("mmu.mem_ops", &c);
    reg.addGauge("energy.dynamic_pj", [] { return 2.5; });
    reg.addHistogram("mmu.ways", &hist);

    std::ostringstream out;
    reg.writeJson(out);
    const auto parsed = parseJson(out.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const JsonValue &doc = parsed.value();
    EXPECT_EQ(doc.find("schema")->string, kMetricsSchema);
    EXPECT_DOUBLE_EQ(doc.find("version")->number, kMetricsVersion);

    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_DOUBLE_EQ(metrics->find("mmu.mem_ops")->number, 7.0);
    EXPECT_DOUBLE_EQ(metrics->find("energy.dynamic_pj")->number, 2.5);
    const JsonValue *h = metrics->find("mmu.ways");
    ASSERT_NE(h, nullptr);
    ASSERT_TRUE(h->find("buckets")->isArray());
    EXPECT_EQ(h->find("buckets")->array.size(), 2u);
    EXPECT_DOUBLE_EQ(h->find("buckets")->array[1].number, 2.0);
    EXPECT_DOUBLE_EQ(h->find("total")->number, 3.0);
}

TEST(Metrics, EmptyRegistryStillWellFormed)
{
    MetricRegistry reg;
    std::ostringstream out;
    reg.writeJson(out);
    const auto parsed = parseJson(out.str());
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().find("metrics")->object.empty());
}

// --------------------------------------------------------------------
// Telemetry sink
// --------------------------------------------------------------------

IntervalRecord
sampleRecord(std::uint64_t index)
{
    IntervalRecord rec;
    rec.interval = index;
    rec.startInstr = index * 1'000'000;
    rec.instructions = 1'000'000;
    rec.memOps = 400'000;
    rec.l1Hits = 390'000;
    rec.l1Misses = 10'000;
    rec.l2Hits = 8'000;
    rec.l2Misses = 2'000;
    rec.missCycles = 170'000;
    rec.dynamicPj = 123456.75;
    rec.l1Mpki = 10.0;
    rec.l2Mpki = 2.0;
    rec.l1HitRatio = 0.975;
    rec.l2HitRatio = 0.8;
    rec.wayMask = {{"L1-4KB TLB", 2u}, {"L1-2MB TLB", 4u}};
    rec.checkMismatches = 0;
    rec.faultsInjected = 1;
    return rec;
}

TEST(Telemetry, EveryLineIsOneVersionedParseableRecord)
{
    std::ostringstream out;
    TelemetrySink sink(out);
    sink.emit(sampleRecord(0));
    sink.emit(sampleRecord(1));
    EXPECT_EQ(sink.recordsEmitted(), 2u);
    EXPECT_TRUE(sink.close().ok());

    std::istringstream lines(out.str());
    std::string line;
    std::uint64_t expectIndex = 0;
    while (std::getline(lines, line)) {
        const auto parsed = parseJson(line);
        ASSERT_TRUE(parsed.ok())
            << parsed.status().message() << " in: " << line;
        const JsonValue &v = parsed.value();
        EXPECT_EQ(v.find("schema")->string, kTelemetrySchema);
        EXPECT_DOUBLE_EQ(v.find("v")->number, kTelemetryVersion);
        EXPECT_DOUBLE_EQ(v.find("interval")->number,
                         static_cast<double>(expectIndex));
        EXPECT_DOUBLE_EQ(v.find("instructions")->number, 1'000'000.0);
        EXPECT_DOUBLE_EQ(v.find("l1_mpki")->number, 10.0);
        const JsonValue *mask = v.find("way_mask");
        ASSERT_NE(mask, nullptr);
        ASSERT_TRUE(mask->isObject());
        EXPECT_DOUBLE_EQ(mask->find("L1-4KB TLB")->number, 2.0);
        EXPECT_DOUBLE_EQ(mask->find("L1-2MB TLB")->number, 4.0);
        ++expectIndex;
    }
    EXPECT_EQ(expectIndex, 2u);
}

TEST(Telemetry, OpenWritesFile)
{
    const std::string path = test::scratchDir() + "eat_obs_tel.jsonl";
    {
        auto sink = TelemetrySink::open(path);
        ASSERT_TRUE(sink.ok()) << sink.status().message();
        sink.value()->emit(sampleRecord(0));
        EXPECT_TRUE(sink.value()->close().ok());
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_TRUE(parseJson(line).ok());
}

TEST(Telemetry, FlushesEveryRecordBeforeClose)
{
    // A child killed mid-run never calls close(); every record emitted
    // so far must already be on disk (at most a torn final line, never
    // buffered history). Read the file back while the sink is open.
    const std::string path =
        test::scratchDir() + "eat_obs_tel_flush.jsonl";
    auto sink = TelemetrySink::open(path);
    ASSERT_TRUE(sink.ok()) << sink.status().message();
    for (unsigned i = 0; i < 3; ++i) {
        sink.value()->emit(sampleRecord(i));
        std::ifstream in(path);
        std::string line;
        unsigned lines = 0;
        while (std::getline(in, line)) {
            EXPECT_TRUE(parseJson(line).ok()) << line;
            ++lines;
        }
        EXPECT_EQ(lines, i + 1);
    }
    EXPECT_TRUE(sink.value()->close().ok());
}

TEST(Telemetry, OpenReportsUnwritablePath)
{
    const auto sink =
        TelemetrySink::open("/nonexistent-dir-xyzzy/t.jsonl");
    EXPECT_FALSE(sink.ok());
}

// --------------------------------------------------------------------
// Chrome trace writer
// --------------------------------------------------------------------

TEST(Trace, WellFormedWithMonotonicTimestampsAndTracksFirst)
{
    TraceWriter trace;
    std::uint64_t clock = 0;
    trace.setClock(&clock);
    const unsigned lite = trace.track("Lite controller");
    const unsigned tlb = trace.track("L1-4KB TLB");
    EXPECT_EQ(trace.track("Lite controller"), lite); // create-or-get

    clock = 50;
    trace.counter(tlb, "active ways", 4.0);
    clock = 100;
    JsonObject args;
    args.put("from_ways", 4u);
    args.put("to_ways", 2u);
    trace.instant(lite, "way-disable", args.str());
    clock = 75; // out-of-order record; the writer must sort
    trace.instant(lite, "phase-change reset");
    EXPECT_EQ(trace.eventsRecorded(), 3u);
    EXPECT_EQ(trace.eventsDropped(), 0u);

    std::ostringstream out;
    trace.writeTo(out);
    const auto parsed = parseJson(out.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const JsonValue *events = parsed.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Metadata first, then payload events in nondecreasing-ts order.
    double lastTs = -1.0;
    bool seenPayload = false;
    unsigned metadata = 0, instants = 0, counters = 0;
    for (const JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        const std::string &ph = e.find("ph")->string;
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        if (ph == "M") {
            EXPECT_FALSE(seenPayload)
                << "metadata after payload events";
            ++metadata;
            continue;
        }
        seenPayload = true;
        const double ts = e.find("ts")->number;
        EXPECT_GE(ts, lastTs) << "timestamps must be nondecreasing";
        lastTs = ts;
        if (ph == "i") {
            ++instants;
            EXPECT_EQ(e.find("s")->string, "t");
        } else if (ph == "C") {
            ++counters;
            EXPECT_DOUBLE_EQ(
                e.find("args")->find("value")->number, 4.0);
        }
    }
    EXPECT_EQ(metadata, 2u);
    EXPECT_EQ(instants, 2u);
    EXPECT_EQ(counters, 1u);
}

TEST(Trace, CapsBufferAndCountsDrops)
{
    TraceWriter trace(2);
    const unsigned t = trace.track("t");
    trace.instant(t, "a");
    trace.instant(t, "b");
    trace.instant(t, "c");
    EXPECT_EQ(trace.eventsRecorded(), 3u);
    EXPECT_EQ(trace.eventsDropped(), 1u);

    std::ostringstream out;
    trace.writeTo(out);
    const auto parsed = parseJson(out.str());
    ASSERT_TRUE(parsed.ok());
    EXPECT_DOUBLE_EQ(parsed.value().find("eatDroppedEvents")->number,
                     1.0);
    // 1 metadata + 2 kept payload events.
    EXPECT_EQ(parsed.value().find("traceEvents")->array.size(), 3u);
}

TEST(Trace, WriteReportsUnwritablePath)
{
    TraceWriter trace;
    EXPECT_FALSE(trace.write("/nonexistent-dir-xyzzy/t.json").ok());
}

// --------------------------------------------------------------------
// Stage profiler
// --------------------------------------------------------------------

TEST(Profiler, MeasuresSequentialStages)
{
    StageProfiler prof;
    prof.start("setup");
    prof.start("simulate"); // implicitly closes "setup"
    prof.stop();
    const StageTimings t = prof.timings();
    ASSERT_EQ(t.stages.size(), 2u);
    EXPECT_EQ(t.stages[0].name, "setup");
    EXPECT_EQ(t.stages[1].name, "simulate");
    EXPECT_GE(t.seconds("setup"), 0.0);
    EXPECT_EQ(t.seconds("missing"), 0.0);
    EXPECT_DOUBLE_EQ(t.total(),
                     t.stages[0].seconds + t.stages[1].seconds);
}

TEST(Profiler, SimKips)
{
    EXPECT_DOUBLE_EQ(simKips(2'000'000, 2.0), 1000.0);
    EXPECT_DOUBLE_EQ(simKips(1'000'000, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(simKips(0, 1.0), 0.0);
}

// --------------------------------------------------------------------
// Log-level control
// --------------------------------------------------------------------

TEST(Logging, SetLogLevelOverrides)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(before);
}

} // namespace
} // namespace eat::obs
