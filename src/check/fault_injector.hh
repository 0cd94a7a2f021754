/**
 * @file
 * Seeded fault injection into TLB state.
 *
 * The injector perturbs the translation hardware the way real silicon
 * or a buggy coherence protocol would — tag/PPN bit flips, dropped
 * invalidations on way-disable, spurious way re-enables — to prove the
 * shadow checker actually detects corruption (a checker nobody has seen
 * fire is untested insurance).
 *
 * Faults are described by a spec string:
 *
 *     SPEC   := FAULT (',' FAULT)*
 *     FAULT  := KIND ['@' TARGET] [':' PROB]
 *     KIND   := tag-flip | ppn-flip | drop-inv | spurious-enable
 *     TARGET := l1-4k | l1-2m | l1-1g | l2 | l1-range | l2-range | any
 *     PROB   := per-memory-operation probability (default 1e-4)
 *
 * e.g. "ppn-flip@l1-4k:1e-4,drop-inv:0.001". Injection draws from one
 * seeded Rng, so a (spec, seed) pair yields a bit-identical fault
 * stream.
 */

#ifndef EAT_CHECK_FAULT_INJECTOR_HH
#define EAT_CHECK_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.hh"
#include "base/status.hh"
#include "tlb/range_tlb.hh"
#include "tlb/set_assoc_tlb.hh"

namespace eat::obs
{
class MetricRegistry;
class TraceWriter;
} // namespace eat::obs

namespace eat::check
{

/** The fault classes the injector can produce. */
enum class FaultKind
{
    TagFlip,          ///< flip a tag bit of a valid entry
    PpnFlip,          ///< flip a PPN bit of a valid entry
    DropInvalidation, ///< next way-disable skips invalidating victims
    SpuriousEnable,   ///< force an illegal active-way count
};

std::string_view faultKindName(FaultKind kind);

/** Which structure a fault targets. */
enum class FaultTarget
{
    L1Tlb4K,
    L1Tlb2M,
    L1Tlb1G,
    L2Tlb,
    L1Range,
    L2Range,
    Any, ///< a random registered structure supporting the fault kind
};

/** One parsed fault clause. */
struct FaultSpec
{
    FaultKind kind = FaultKind::PpnFlip;
    FaultTarget target = FaultTarget::Any;
    double probability = 1e-4; ///< per injection opportunity (memory op)
};

/** Parse a spec string (see file comment for the grammar). */
Result<std::vector<FaultSpec>> parseFaultSpecs(const std::string &spec);

/** Injection counters, by fault kind. */
struct InjectStats
{
    std::uint64_t opportunities = 0; ///< tick() calls
    std::uint64_t tagFlips = 0;
    std::uint64_t ppnFlips = 0;
    std::uint64_t droppedInvalidations = 0; ///< armed drops
    std::uint64_t spuriousEnables = 0;

    /** Lookups, summed over the registered TLBs, that hit an entry
     *  whose PPN differs from its fill: flips the datapath consumed.
     *  A flipped entry evicted before its next hit is never counted. */
    std::uint64_t ppnFlipsConsumed = 0;

    std::uint64_t
    injected() const
    {
        return tagFlips + ppnFlips + droppedInvalidations + spuriousEnables;
    }
};

/** Drives a parsed fault spec against registered TLB structures. */
class FaultInjector
{
  public:
    FaultInjector(std::vector<FaultSpec> specs, std::uint64_t seed);

    /** Register a page TLB as @p target (ignored when null). */
    void registerPageTlb(tlb::SetAssocTlb *tlb, FaultTarget target);

    /** Register a range TLB as @p target (ignored when null). */
    void registerRangeTlb(tlb::RangeTlb *tlb, FaultTarget target);

    /** One injection opportunity (call once per memory operation). */
    void tick();

    /** The counters, with ppnFlipsConsumed summed over the registered
     *  TLBs at the time of the call. */
    const InjectStats &stats() const;

    /** Register the inject.* counters into @p registry (bindings only;
     *  the registry must not outlive this injector). Multicore runs
     *  pass a @p prefix (e.g. "core2.") to keep names distinct. */
    void registerMetrics(obs::MetricRegistry &registry,
                         const std::string &prefix = "") const;

    /** Attach a tracer (not owned; null detaches): every landed fault
     *  becomes an instant event on the injector track, placed under
     *  @p core's process in multicore traces. */
    void setTrace(obs::TraceWriter *trace, unsigned core = 0);

  private:
    struct PageTlbSlot
    {
        tlb::SetAssocTlb *tlb;
        FaultTarget target;
    };
    struct RangeTlbSlot
    {
        tlb::RangeTlb *tlb;
        FaultTarget target;
    };

    void inject(const FaultSpec &spec);
    tlb::SetAssocTlb *pickPageTlb(FaultTarget target);
    tlb::RangeTlb *pickRangeTlb(FaultTarget target);
    void traceFault(FaultKind kind, const std::string &structName);

    std::vector<FaultSpec> specs_;
    std::vector<PageTlbSlot> pageTlbs_;
    std::vector<RangeTlbSlot> rangeTlbs_;
    Rng rng_;
    /** Mutable: stats() refreshes the consumed-flip sum. */
    mutable InjectStats stats_;

    obs::TraceWriter *trace_ = nullptr;
    unsigned traceTrack_ = 0;
};

} // namespace eat::check

#endif // EAT_CHECK_FAULT_INJECTOR_HH
