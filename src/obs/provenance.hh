/**
 * @file
 * Energy provenance: per-translation structured event tracing.
 *
 * The telemetry stream answers "how much energy did this interval
 * spend"; provenance answers "on what, exactly". Every energy-bearing
 * micro-event of a translation — each TLB/PWC probe with its active-way
 * mask, each fill and the eviction it caused, each page-walk memory
 * reference with its level, Lite resizes, and multicore shootdown
 * broadcasts — is recorded with the *exact* picojoule value the energy
 * meter was charged, plus core id, ASID, page size, and the
 * simulated-instruction timestamp.
 *
 * Load-bearing guarantee: with sampling off, summing the traced event
 * energy per (core, structure) is bit-identical to the aggregate
 * energy meters and to the telemetry dynamic_pj rows. The sink
 * accumulates in the same IEEE order the meters charge, and the JSONL
 * writer prints with std::to_chars at precision 17 (the bytes of
 * %.17g, which round-trips), so reconciliation is an exact == — no
 * epsilon. The qa oracle and tools/eatreport both check this identity.
 *
 * Sampling (1-in-N translations) drops *written* path events but still
 * accumulates every event into the in-memory summary, so summary
 * totals stay exact under sampling; only the JSONL stream becomes a
 * sample. Control events (Resize/Interval/Shootdown) are always
 * written. The stream is versioned: every line carries
 * {"schema":"eat.prov.event","v":1}, and the stream ends with one
 * {"schema":"eat.prov.summary","v":1} record holding the exact totals.
 * This module alone owns that record and the per-event book: readers
 * parse it back with provSummaryFromJson() and re-sum a stream's events
 * with ProvCoreTotals::add(), as eatreport --reconcile does.
 *
 * Compile-out: building with EAT_PROVENANCE=OFF defines
 * EAT_NO_PROVENANCE, which turns every instrumentation hook into dead
 * code (the hooks are written `if (EAT_PROV_ENABLED && prov_)`), so
 * the fast path carries no trace of the feature.
 */

#ifndef EAT_OBS_PROVENANCE_HH
#define EAT_OBS_PROVENANCE_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "obs/json.hh"
#include "obs/prov_ids.hh"
#include "stats/histogram.hh"

#ifdef EAT_NO_PROVENANCE
#define EAT_PROV_ENABLED 0
#else
#define EAT_PROV_ENABLED 1
#endif

namespace eat::obs
{

/** True when this build carries the provenance hooks. */
inline constexpr bool kProvenanceCompiledIn = EAT_PROV_ENABLED != 0;

inline constexpr std::string_view kProvEventSchema = "eat.prov.event";
inline constexpr int kProvEventVersion = 1;
inline constexpr std::string_view kProvSummarySchema = "eat.prov.summary";
inline constexpr int kProvSummaryVersion = 1;

/** One traced micro-event. Field meaning varies slightly by kind:
 *  aux0 = active-way mask (Probe/Fill), walk level (WalkRef),
 *         previous active ways (Resize), remote cores (Shootdown),
 *         targeted sharer cores (CohProbe), interval index (Interval);
 *  aux1 = new active ways (Resize), entries invalidated
 *         (Shootdown/CohProbe). */
struct ProvEvent
{
    std::uint64_t instr = 0; ///< simulated instructions retired
    std::uint64_t addr = 0;  ///< vaddr (Translation) / vbase (Shootdown)
    PicoJoules pj = 0.0;     ///< exact energy charged by this event
    ProvKind kind = ProvKind::Count;
    ProvStruct structId = ProvStruct::None;
    unsigned core = 0;
    std::uint16_t asid = 0;
    std::uint8_t psShift = 0; ///< log2 page size; 0 = not applicable
    bool hit = false;         ///< Probe outcome
    std::uint32_t aux0 = 0;
    std::uint32_t aux1 = 0;
    std::uint64_t aux2 = 0;   ///< translation version (CohProbe)
};

/** Exact per-structure accumulators, summed in event-arrival order. */
struct ProvStructTotals
{
    std::uint64_t reads = 0;  ///< Probe + WalkRef events
    std::uint64_t writes = 0; ///< Fill events
    std::uint64_t evicts = 0; ///< Evict events (no energy)
    PicoJoules readPj = 0.0;
    PicoJoules writePj = 0.0;

    /** Book a Probe, WalkRef or Fill event charged @p pj: a Fill
     *  writes, any other kind reads. */
    void
    add(ProvKind kind, PicoJoules pj)
    {
        if (kind == ProvKind::Fill) {
            ++writes;
            writePj += pj;
        } else {
            ++reads;
            readPj += pj;
        }
    }
};

/** Per-core totals; structs[] is indexed by ProvStruct. */
struct ProvCoreTotals
{
    std::array<ProvStructTotals, kProvMeteredStructs> structs{};
    std::uint64_t shootdowns = 0;
    PicoJoules shootdownPj = 0.0;
    std::uint64_t cohProbes = 0;  ///< hw-coherence filter probes
    PicoJoules cohPj = 0.0;       ///< hw-coherence energy (own book)

    /**
     * Book one event of this core: Probe, WalkRef, Fill and Evict on
     * structure @p s (a metered id), Shootdown and CohProbe in the
     * core's own book. Other kinds book nothing and ignore @p s.
     */
    void add(ProvKind kind, ProvStruct s, PicoJoules pj);

    /**
     * Dynamic energy re-derived from events, added in the exact order
     * Mmu::dynamicEnergyTotal() sums its meters (per struct:
     * read + write; across structs: enum order). Bit-identical to the
     * meter total when sampling is off.
     */
    PicoJoules canonicalDynamicPj() const;
};

/** Everything the sink knows at close(); also written as the trailing
 *  eat.prov.summary JSONL record. */
struct ProvSummary
{
    std::uint64_t sampleEvery = 1;
    std::uint64_t translations = 0;
    std::uint64_t translationsSampled = 0; ///< path events written
    std::uint64_t events = 0;              ///< seen (incl. unsampled)
    std::uint64_t eventsWritten = 0;

    /** Indexed by core id; grown on first event from that core. */
    std::vector<ProvCoreTotals> cores;

    // Streaming histograms, maintained for every translation whether
    // sampled or not.
    stats::Histogram walkDepth;       ///< page-walk memory refs (0..4)
    stats::Histogram translationPj;   ///< log2(pJ) per translation
    stats::Histogram reuseDistance;   ///< log2(instr) between L1 misses
    stats::Histogram shootdownFanout; ///< log2(entries invalidated)
};

/** Bucket helper shared by the sink and eatreport: 0 for every v < 1
 *  and for NaN, otherwise 1 + floor(log2(v)) capped at 63 (+Inf is
 *  63). Equal to the number of halvings that take v below 1. */
std::size_t provLog2Bucket(double v);

/**
 * The tracer. One sink per simulation; in multicore runs all cores
 * share it (the simulation is single-threaded, and accumulators are
 * per-core, so per-core charge order is preserved).
 *
 * Producers bracket each translation with beginTranslation() /
 * endTranslation() and emit() the path events in charge order.
 * Control events may be emitted outside a translation at any time.
 */
class ProvenanceSink
{
  public:
    /** Accumulate-only sink (no stream) — used by the qa oracle. */
    explicit ProvenanceSink(std::uint64_t sampleEvery = 1);

    /** Stream JSONL to @p path (truncating); @p sampleEvery >= 1. */
    static Result<std::unique_ptr<ProvenanceSink>>
    open(const std::string &path, std::uint64_t sampleEvery = 1);

    void beginTranslation(std::uint64_t instr, unsigned core,
                          std::uint16_t asid, std::uint64_t vaddr);

    /** Record one event. Accumulates always; writes JSONL when the
     *  enclosing translation is sampled or the kind is a control
     *  event. */
    void
    emit(const ProvEvent &event)
    {
        // Inline fast path: a probe, fill or walk reference of an open
        // translation that is not written, from a core already seen.
        if (inTranslation_ && !writing_ && isPathEvent(event.kind) &&
            event.core < summary_.cores.size()) {
            ++summary_.events;
            accumulatePath(event, summary_.cores[event.core]);
            return;
        }
        emitSlow(event);
    }

    /** Close the open translation: emits its Translation record and
     *  updates the per-translation histograms. @p source names who
     *  produced the final translation ("l1", "l2", "l2-range",
     *  "walk"). */
    void endTranslation(std::string_view source, std::uint8_t psShift,
                        bool l1Hit);

    const ProvSummary &summary() const { return summary_; }
    bool sampling() const { return summary_.sampleEvery > 1; }
    std::uint64_t eventsWritten() const { return summary_.eventsWritten; }

    /** Write the trailing summary record, flush, report health. */
    Status close();

  private:
    static bool
    isPathEvent(ProvKind k)
    {
        return k == ProvKind::Probe || k == ProvKind::Fill ||
               k == ProvKind::WalkRef;
    }

    /** Add a Probe/Fill/WalkRef event to its structure's book and to
     *  the open translation. */
    void
    accumulatePath(const ProvEvent &e, ProvCoreTotals &ct)
    {
        ct.structs[static_cast<std::size_t>(e.structId)].add(e.kind, e.pj);
        if (inTranslation_) {
            curPj_ += e.pj;
            if (e.kind == ProvKind::WalkRef &&
                e.structId == ProvStruct::WalkMem)
                ++curWalkRefs_;
        }
    }

    void emitSlow(const ProvEvent &event);
    void writeEvent(const ProvEvent &event);
    void accumulate(const ProvEvent &event);
    ProvCoreTotals &coreTotals(unsigned core);

    std::unique_ptr<std::ofstream> file_;
    std::ostream *out_ = nullptr; ///< null for accumulate-only sinks
    bool closed_ = false;
    JsonObject line_; ///< reused for every written line

    ProvSummary summary_;
    /** Translations to skip before the next sampled one. */
    std::uint64_t sampleCountdown_ = 0;

    // State of the translation currently in flight.
    bool inTranslation_ = false;
    bool writing_ = false; ///< its path events go to the stream
    std::uint64_t curInstr_ = 0;
    std::uint64_t curVaddr_ = 0;
    unsigned curCore_ = 0;
    std::uint16_t curAsid_ = 0;
    PicoJoules curPj_ = 0.0;   ///< energy of this translation so far
    unsigned curWalkRefs_ = 0; ///< page-walk memory refs this translation

    /** Instruction stamp of each core's previous L1 miss (reuse
     *  distance); UINT64_MAX = no miss seen yet. */
    std::vector<std::uint64_t> lastMissInstr_;
};

/** Render the summary as the eat.prov.summary JSONL line (exact
 *  totals at precision 17). Exposed so tests can golden-check it. */
std::string provSummaryToJson(const ProvSummary &summary);

/**
 * Parse an eat.prov.summary record: the exact inverse of
 * provSummaryToJson(), every count and double and histogram bucket.
 * A structure without a row reads zero. Refused: a wrong schema or
 * version, a missing or non-integer count, a zero sample rate, a core
 * listed out of its position, an unknown structure name, and a core
 * whose dynamic_pj is not canonicalDynamicPj() of its rows.
 */
Result<ProvSummary> provSummaryFromJson(const JsonValue &json);

} // namespace eat::obs

#endif // EAT_OBS_PROVENANCE_HH
