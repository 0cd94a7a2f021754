#include "obs/provenance.hh"

#include <cmath>
#include <cstdint>
#include <utility>

#include "base/logging.hh"

namespace eat::obs
{

namespace
{

constexpr std::uint64_t kNoMiss = ~std::uint64_t(0);

constexpr std::string_view kStructNames[] = {
    "l1_tlb_4k", "l1_tlb_2m",     "l1_tlb_1g", "l2_tlb",
    "l1_range",  "l2_range",      "pwc_pde",   "pwc_pdpte",
    "pwc_pml4",  "walk_mem",      "range_walk_mem",
    "host_pwc",  "host_walk_mem", "l3_tlb",    "dram_tlb",
    "shootdown", "coherence",     "none",
};
static_assert(std::size(kStructNames) ==
              static_cast<std::size_t>(ProvStruct::Count));

constexpr std::string_view kKindNames[] = {
    "probe",    "fill",      "evict",    "walk_ref",
    "resize",   "interval",  "shootdown", "translation",
    "coh_probe",
};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(ProvKind::Count));

bool
isControl(ProvKind k)
{
    return k == ProvKind::Resize || k == ProvKind::Interval ||
           k == ProvKind::Shootdown || k == ProvKind::CohProbe;
}

} // namespace

std::string_view
provStructName(ProvStruct s)
{
    return kStructNames[static_cast<std::size_t>(s)];
}

ProvStruct
provStructFromName(std::string_view name)
{
    for (std::size_t i = 0; i < std::size(kStructNames); ++i)
        if (kStructNames[i] == name)
            return static_cast<ProvStruct>(i);
    return ProvStruct::Count;
}

std::string_view
provKindName(ProvKind k)
{
    return kKindNames[static_cast<std::size_t>(k)];
}

ProvKind
provKindFromName(std::string_view name)
{
    for (std::size_t i = 0; i < std::size(kKindNames); ++i)
        if (kKindNames[i] == name)
            return static_cast<ProvKind>(i);
    return ProvKind::Count;
}

std::size_t
provLog2Bucket(double v)
{
    // Halving a double >= 1 is exact, so it takes 1 + ilogb(v)
    // halvings to bring v below 1.
    if (!(v >= 1.0))
        return 0; // v < 1 or NaN
    const int exponent = std::ilogb(v); // INT_MAX for +Inf
    return exponent >= 62 ? 63 : static_cast<std::size_t>(exponent) + 1;
}

void
ProvCoreTotals::add(ProvKind kind, ProvStruct s, PicoJoules pj)
{
    switch (kind) {
      case ProvKind::Probe:
      case ProvKind::WalkRef:
      case ProvKind::Fill:
        structs[static_cast<std::size_t>(s)].add(kind, pj);
        break;
      case ProvKind::Evict:
        ++structs[static_cast<std::size_t>(s)].evicts;
        break;
      case ProvKind::Shootdown:
        ++shootdowns;
        shootdownPj += pj;
        break;
      case ProvKind::CohProbe:
        ++cohProbes;
        cohPj += pj;
        break;
      default:
        break;
    }
}

PicoJoules
ProvCoreTotals::canonicalDynamicPj() const
{
    // Mirror Mmu::dynamicEnergyTotal(): per meter read + write energy,
    // meters added in enum (== member declaration) order. Shootdown
    // energy is deliberately excluded there and here.
    PicoJoules total = 0.0;
    for (const ProvStructTotals &s : structs)
        total += s.readPj + s.writePj;
    return total;
}

ProvenanceSink::ProvenanceSink(std::uint64_t sampleEvery)
{
    summary_.sampleEvery = sampleEvery < 1 ? 1 : sampleEvery;
    summary_.walkDepth.ensureBuckets(5);
}

Result<std::unique_ptr<ProvenanceSink>>
ProvenanceSink::open(const std::string &path, std::uint64_t sampleEvery)
{
    if (sampleEvery < 1)
        return Status::error("provenance sample rate must be >= 1");
    auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
    if (!*file)
        return Status::error("cannot open provenance file ", path);
    auto sink = std::make_unique<ProvenanceSink>(sampleEvery);
    sink->out_ = file.get();
    sink->file_ = std::move(file);
    return sink;
}

ProvCoreTotals &
ProvenanceSink::coreTotals(unsigned core)
{
    if (core >= summary_.cores.size())
        summary_.cores.resize(core + 1);
    return summary_.cores[core];
}

void
ProvenanceSink::beginTranslation(std::uint64_t instr, unsigned core,
                                 std::uint16_t asid, std::uint64_t vaddr)
{
    ++summary_.translations;
    // Sample the first translation and every sampleEvery-th after it.
    const bool sampled = sampleCountdown_ == 0;
    if (sampled) {
        sampleCountdown_ = summary_.sampleEvery - 1;
        ++summary_.translationsSampled;
    } else {
        --sampleCountdown_;
    }
    writing_ = out_ && sampled;
    inTranslation_ = true;
    curInstr_ = instr;
    curVaddr_ = vaddr;
    curCore_ = core;
    curAsid_ = asid;
    curPj_ = 0.0;
    curWalkRefs_ = 0;
}

void
ProvenanceSink::accumulate(const ProvEvent &e)
{
    ++summary_.events;
    ProvCoreTotals &ct = coreTotals(e.core);
    if (isPathEvent(e.kind)) {
        accumulatePath(e, ct);
        return;
    }
    ct.add(e.kind, e.structId, e.pj);
    if (e.kind == ProvKind::Shootdown || e.kind == ProvKind::CohProbe)
        summary_.shootdownFanout.record(provLog2Bucket(double(e.aux1)));
}

void
ProvenanceSink::writeEvent(const ProvEvent &e)
{
    JsonObject &o = line_;
    o.clear();
    o.put("schema", kProvEventSchema);
    o.put("v", kProvEventVersion);
    o.put("i", e.instr);
    o.put("k", provKindName(e.kind));
    o.put("core", e.core);
    switch (e.kind) {
      case ProvKind::Probe:
        o.put("s", provStructName(e.structId));
        o.put("asid", unsigned(e.asid));
        o.put("ways", e.aux0);
        o.put("hit", e.hit);
        o.putExact("pj", e.pj);
        break;
      case ProvKind::Fill:
        o.put("s", provStructName(e.structId));
        o.put("asid", unsigned(e.asid));
        if (e.psShift)
            o.put("ps", unsigned(e.psShift));
        o.putExact("pj", e.pj);
        break;
      case ProvKind::Evict:
        o.put("s", provStructName(e.structId));
        o.put("asid", unsigned(e.asid));
        break;
      case ProvKind::WalkRef:
        o.put("s", provStructName(e.structId));
        o.put("asid", unsigned(e.asid));
        o.put("level", e.aux0);
        o.putExact("pj", e.pj);
        break;
      case ProvKind::Resize:
        o.put("s", provStructName(e.structId));
        o.put("from", e.aux0);
        o.put("to", e.aux1);
        break;
      case ProvKind::Interval:
        o.put("interval", e.addr);
        o.putExact("pj", e.pj);
        break;
      case ProvKind::Shootdown:
        o.put("asid", unsigned(e.asid));
        o.put("addr", e.addr);
        o.put("remote", e.aux0);
        o.put("entries", e.aux1);
        o.putExact("pj", e.pj);
        break;
      case ProvKind::CohProbe:
        o.put("asid", unsigned(e.asid));
        o.put("addr", e.addr);
        o.put("targets", e.aux0);
        o.put("entries", e.aux1);
        o.put("version", e.aux2);
        o.putExact("pj", e.pj);
        break;
      default:
        break;
    }
    o.writeLine(*out_);
    ++summary_.eventsWritten;
}

void
ProvenanceSink::emitSlow(const ProvEvent &e)
{
    accumulate(e);
    if (out_ && (isControl(e.kind) || (inTranslation_ && writing_)))
        writeEvent(e);
}

void
ProvenanceSink::endTranslation(std::string_view source,
                               std::uint8_t psShift, bool l1Hit)
{
    if (!inTranslation_)
        return;
    inTranslation_ = false;

    summary_.walkDepth.record(curWalkRefs_);
    summary_.translationPj.record(provLog2Bucket(curPj_));
    if (!l1Hit) {
        if (curCore_ >= lastMissInstr_.size())
            lastMissInstr_.resize(curCore_ + 1, kNoMiss);
        const std::uint64_t last = lastMissInstr_[curCore_];
        if (last != kNoMiss)
            summary_.reuseDistance.record(
                provLog2Bucket(double(curInstr_ - last)));
        lastMissInstr_[curCore_] = curInstr_;
    }

    ++summary_.events;
    if (writing_) {
        JsonObject &o = line_;
        o.clear();
        o.put("schema", kProvEventSchema);
        o.put("v", kProvEventVersion);
        o.put("i", curInstr_);
        o.put("k", provKindName(ProvKind::Translation));
        o.put("core", curCore_);
        o.put("asid", unsigned(curAsid_));
        o.put("addr", curVaddr_);
        o.put("src", source);
        if (psShift)
            o.put("ps", unsigned(psShift));
        o.putExact("pj", curPj_);
        o.writeLine(*out_);
        ++summary_.eventsWritten;
    }
}

namespace
{

std::string
histToJson(const stats::Histogram &h)
{
    std::string out = "[";
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(h.bucketCount(i));
    }
    out += ']';
    return out;
}

/** Reads the members of one summary record, keeping the first problem;
 *  a missing or mistyped member reads as zero after that. */
struct SummaryReader
{
    Status status;
    std::string where = "summary"; ///< names the object being read

    template <typename... Args>
    void
    fail(Args &&...args)
    {
        if (status.ok())
            status = Status::error(where, ": ", std::forward<Args>(args)...);
    }

    std::uint64_t
    count(const JsonValue &o, std::string_view key)
    {
        const JsonValue *v = o.find(key);
        if (v && v->exactUint)
            return *v->exactUint;
        fail("'", key, "' is missing or not an unsigned integer");
        return 0;
    }

    PicoJoules
    pj(const JsonValue &o, std::string_view key)
    {
        const JsonValue *v = o.find(key);
        if (v && v->isNumber())
            return v->number;
        fail("'", key, "' is missing or not a number");
        return 0.0;
    }

    const std::vector<JsonValue> &
    array(const JsonValue &o, std::string_view key)
    {
        static const std::vector<JsonValue> kNone;
        const JsonValue *v = o.find(key);
        if (v && v->isArray())
            return v->array;
        fail("'", key, "' is missing or not an array");
        return kNone;
    }

    stats::Histogram
    histogram(const JsonValue &hist, std::string_view key)
    {
        const auto &buckets = array(hist, key);
        stats::Histogram h(buckets.size());
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (!buckets[i].exactUint)
                fail("'", key, "' bucket ", i, " is not an unsigned integer");
            h.record(i, buckets[i].exactUint.value_or(0));
        }
        return h;
    }
};

} // namespace

std::string
provSummaryToJson(const ProvSummary &s)
{
    JsonObject o;
    o.put("schema", kProvSummarySchema);
    o.put("v", kProvSummaryVersion);
    o.put("sample_every", s.sampleEvery);
    o.put("translations", s.translations);
    o.put("translations_sampled", s.translationsSampled);
    o.put("events", s.events);
    o.put("events_written", s.eventsWritten);

    std::string cores = "[";
    for (std::size_t c = 0; c < s.cores.size(); ++c) {
        const ProvCoreTotals &ct = s.cores[c];
        if (c)
            cores += ',';
        JsonObject co;
        co.put("core", std::uint64_t(c));
        std::string structs = "[";
        bool first = true;
        for (unsigned i = 0; i < kProvMeteredStructs; ++i) {
            const ProvStructTotals &st = ct.structs[i];
            if (st.reads == 0 && st.writes == 0 && st.evicts == 0)
                continue; // untouched structures are implied zero
            if (!first)
                structs += ',';
            first = false;
            JsonObject so;
            so.put("s", provStructName(static_cast<ProvStruct>(i)));
            so.put("reads", st.reads);
            so.put("writes", st.writes);
            so.put("evicts", st.evicts);
            so.putExact("read_pj", st.readPj);
            so.putExact("write_pj", st.writePj);
            structs += so.str();
        }
        structs += ']';
        co.putRaw("structs", structs);
        co.put("shootdowns", ct.shootdowns);
        co.putExact("shootdown_pj", ct.shootdownPj);
        co.put("coh_probes", ct.cohProbes);
        co.putExact("coh_pj", ct.cohPj);
        co.putExact("dynamic_pj", ct.canonicalDynamicPj());
        cores += co.str();
    }
    cores += ']';
    o.putRaw("cores", cores);

    JsonObject hist;
    hist.putRaw("walk_depth", histToJson(s.walkDepth));
    hist.putRaw("translation_pj_log2", histToJson(s.translationPj));
    hist.putRaw("reuse_log2", histToJson(s.reuseDistance));
    hist.putRaw("shootdown_fanout_log2", histToJson(s.shootdownFanout));
    o.putRaw("hist", hist.str());
    return o.str();
}

Result<ProvSummary>
provSummaryFromJson(const JsonValue &json)
{
    const JsonValue *schema = json.find("schema");
    if (!schema || schema->string != kProvSummarySchema)
        return Status::error("summary: schema is not '", kProvSummarySchema,
                             "'");
    SummaryReader in;
    if (in.count(json, "v") != unsigned(kProvSummaryVersion)) {
        in.fail("version is not ", kProvSummaryVersion);
        return in.status;
    }

    ProvSummary s;
    s.sampleEvery = in.count(json, "sample_every");
    if (s.sampleEvery == 0)
        in.fail("'sample_every' is 0");
    s.translations = in.count(json, "translations");
    s.translationsSampled = in.count(json, "translations_sampled");
    s.events = in.count(json, "events");
    s.eventsWritten = in.count(json, "events_written");

    for (const JsonValue &co : in.array(json, "cores")) {
        in.where = "summary";
        const std::uint64_t c = in.count(co, "core");
        if (c != s.cores.size()) {
            in.fail("core ", c, " listed at position ", s.cores.size());
            break;
        }
        in.where = "summary core " + std::to_string(c);
        ProvCoreTotals &ct = s.cores.emplace_back();
        for (const JsonValue &so : in.array(co, "structs")) {
            const JsonValue *name = so.find("s");
            const std::string token = name ? name->string : "";
            const ProvStruct id = provStructFromName(token);
            if (static_cast<unsigned>(id) >= kProvMeteredStructs) {
                in.fail("unknown structure '", token, "'");
                break;
            }
            ProvStructTotals &st = ct.structs[static_cast<std::size_t>(id)];
            st.reads = in.count(so, "reads");
            st.writes = in.count(so, "writes");
            st.evicts = in.count(so, "evicts");
            st.readPj = in.pj(so, "read_pj");
            st.writePj = in.pj(so, "write_pj");
        }
        ct.shootdowns = in.count(co, "shootdowns");
        ct.shootdownPj = in.pj(co, "shootdown_pj");
        ct.cohProbes = in.count(co, "coh_probes");
        ct.cohPj = in.pj(co, "coh_pj");
        const PicoJoules dynamicPj = in.pj(co, "dynamic_pj");
        if (in.status.ok() && dynamicPj != ct.canonicalDynamicPj()) {
            in.fail("dynamic_pj ", jsonNumberExact(dynamicPj),
                    " is not the sum of its rows, ",
                    jsonNumberExact(ct.canonicalDynamicPj()));
        }
    }

    in.where = "summary hist";
    static const JsonValue kNoHist;
    const JsonValue *hist = json.find("hist");
    const JsonValue &h = hist ? *hist : kNoHist;
    s.walkDepth = in.histogram(h, "walk_depth");
    s.translationPj = in.histogram(h, "translation_pj_log2");
    s.reuseDistance = in.histogram(h, "reuse_log2");
    s.shootdownFanout = in.histogram(h, "shootdown_fanout_log2");
    if (!in.status.ok())
        return in.status;
    return s;
}

Status
ProvenanceSink::close()
{
    if (closed_)
        return Status();
    closed_ = true;
    if (!out_)
        return Status();
    *out_ << provSummaryToJson(summary_) << "\n";
    out_->flush();
    if (!*out_)
        return Status::error("provenance stream write failure");
    if (file_)
        file_->close();
    return Status();
}

} // namespace eat::obs
