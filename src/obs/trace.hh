/**
 * @file
 * Chrome trace-event writer for simulator decision tracing.
 *
 * Emits the Trace Event Format JSON that chrome://tracing and Perfetto
 * load: every Lite way enable/disable, phase-change reset, fault
 * injection, and checker fire becomes an instant or counter event on a
 * named per-structure track, timestamped in *simulated instructions*
 * (rendered as microseconds, so 1 instruction == 1 us on screen).
 *
 * Components do not manage timestamps: the writer holds one shared
 * clock binding (the MMU's retired-instruction counter) and stamps each
 * event as it is recorded. Events are buffered and stably sorted by
 * timestamp before writing, so the output is well-formed for strict
 * consumers regardless of the order subsystems fire in. The buffer is
 * capped (events past the cap are counted, not stored) so a
 * pathological run cannot exhaust memory; the cap and drop count are
 * reported in the file's metadata.
 *
 * eatreport --chrome-out renders a provenance stream's events through
 * the same writer, so both exports share one layout.
 */

#ifndef EAT_OBS_TRACE_HH
#define EAT_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/status.hh"

namespace eat::obs
{

/** Buffers trace events and renders Chrome trace-event JSON. */
class TraceWriter
{
  public:
    /** @param maxEvents buffer cap; further events are dropped
     *  (counted). The default holds hours of interval-level activity. */
    explicit TraceWriter(std::size_t maxEvents = 1u << 20);

    /**
     * Bind the timestamp source of @p core (not owned; typically that
     * core's retired-instruction counter). Events on a core's tracks
     * are stamped from its own clock; tracks of a core with no clock
     * bound are stamped 0.
     */
    void registerClock(unsigned core, const std::uint64_t *clock);

    /** Single-core shorthand: bind core 0's clock. */
    void setClock(const std::uint64_t *clock) { registerClock(0, clock); }

    /**
     * Create-or-get the track named @p name on @p core. Tracks render
     * as separate rows (threads) in the viewer; in multicore traces
     * each core becomes its own process, so its tracks group together
     * instead of interleaving (telemetry v2 "core" ↔ trace pid-1).
     */
    unsigned track(const std::string &name, unsigned core = 0);

    /** Record an instant event; @p argsJson is a pre-rendered JSON
     *  object ("{}" when empty). */
    void instant(unsigned track, std::string name,
                 std::string argsJson = {});

    /** Record a counter sample (renders as a step graph). */
    void counter(unsigned track, std::string name, double value);

    std::uint64_t eventsRecorded() const { return recorded_; }
    std::uint64_t eventsDropped() const { return dropped_; }

    /**
     * Render the whole trace:
     *   {"displayTimeUnit":"ms","traceEvents":[...]}
     * Events are emitted in nondecreasing-timestamp order with track
     * metadata first.
     */
    void writeTo(std::ostream &out) const;

    /** writeTo() a file at @p path (truncating). */
    Status write(const std::string &path) const;

  private:
    struct Track
    {
        std::string name;
        unsigned core;
    };

    struct Event
    {
        std::uint64_t ts;
        unsigned track;
        char phase; ///< 'i' instant, 'C' counter
        std::string name;
        std::string args; ///< pre-rendered JSON object
    };

    void push(Event event);
    std::uint64_t nowFor(unsigned core) const;

    /** Per-core clock bindings (index = core id). */
    std::vector<const std::uint64_t *> clocks_;
    std::vector<Track> tracks_;
    std::vector<Event> events_;
    std::size_t maxEvents_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace eat::obs

#endif // EAT_OBS_TRACE_HH
