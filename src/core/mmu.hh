/**
 * @file
 * The per-core MMU: the complete address-translation datapath.
 *
 * One Mmu instance wires up the TLB hierarchy of a configuration
 * (core/config.hh), charges the Table-3 energy model on every access,
 * applies the Table-3 cycle model, and drives the Lite controller at
 * interval boundaries.
 *
 * Lookup datapath per memory operation:
 *
 *   1. All *enabled* L1 structures are searched in parallel (each one
 *      charged a read). A structure for a page size (or for ranges) is
 *      statically masked — zero energy — until the first walk fetches
 *      an entry of its kind (paper §3.1).
 *   2. On an L1 miss, the enabled L2 structures are searched in
 *      parallel (7 cycles). An L2-page hit refills the matching L1
 *      TLB; an L2-range hit refills the L1-range TLB (if present) and
 *      a synthesized 4 KB entry into the L1-4KB TLB (RMM semantics).
 *   3. On an L2 miss, the page walk runs (50 cycles): the MMU caches
 *      determine the 1-4 memory references, and in RMM configurations
 *      the range-table walker additionally runs in the background
 *      (energy, no cycles) and refills the L2-range TLB.
 */

#ifndef EAT_CORE_MMU_HH
#define EAT_CORE_MMU_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "check/shadow_checker.hh"
#include "core/config.hh"
#include "core/mmu_stats.hh"
#include "energy/account.hh"
#include "obs/prov_ids.hh"
#include "energy/cacti_lite.hh"
#include "l3/cache_tlb.hh"
#include "l3/dram_tlb.hh"
#include "lite/lite_controller.hh"
#include "tlb/fully_assoc_tlb.hh"
#include "tlb/mmu_cache.hh"
#include "tlb/page_walker.hh"
#include "tlb/range_tlb.hh"
#include "tlb/range_walker.hh"
#include "tlb/set_assoc_tlb.hh"
#include "vm/host_table.hh"
#include "vm/nested_walker.hh"
#include "vm/page_table.hh"
#include "vm/range_table.hh"

namespace eat::obs
{
class MetricRegistry;
class ProvenanceSink;
class TelemetrySink;
class TraceWriter;
} // namespace eat::obs

namespace eat::check
{
struct InjectStats;
} // namespace eat::check

namespace eat::core
{

/** Read only by perfbench; remove with the next benchmark change. */
inline constexpr bool kFrontCacheCompiledIn = false;

/** The per-core memory management unit. */
class Mmu
{
  public:
    /**
     * @param config the organization to simulate.
     * @param pageTable the process's page table (authoritative; also
     *        the zero-cost oracle for TLB_PP's perfect predictor).
     * @param rangeTable the process's range table; required when the
     *        configuration has range TLBs, ignored otherwise.
     */
    Mmu(const MmuConfig &config, const vm::PageTable &pageTable,
        const vm::RangeTable *rangeTable);

    /** Translate one memory operation at @p vaddr. */
    void access(Addr vaddr);

    /**
     * Retire @p n instructions (drives Lite's interval clock). The
     * in-class body is the per-op fast path: a memoized static-energy
     * charge plus an interval-boundary check. Anything that changes the
     * leakage inputs (a fill's enable flip, a Lite resize) clears
     * leakCache_.valid, steering the next tick through tickSlow()'s
     * recompute — so the fast path never charges stale coefficients.
     */
    void
    tick(InstrCount n)
    {
        if (leakCache_.valid && n < kTickDeltaSlots &&
            tickDeltas_[n].valid) {
            stats_.instructions += n;
            staticGatedPj_ += tickDeltas_[n].gatedPj;
            staticFullPj_ += tickDeltas_[n].fullPj;
            if (!lite_ && !telemetry_)
                return;
            instrTowardInterval_ += n;
            if (instrTowardInterval_ < cfg_.lite.intervalInstructions)
                return;
            tickIntervals();
            return;
        }
        tickSlow(n);
    }

    /**
     * Context switch: retarget the datapath at another address space.
     * Reloading CR3 always flushes the (untagged) paging-structure
     * caches; @p flushTlbs additionally invalidates every TLB, modeling
     * cores without ASID tags (`--ctx-flush`). Switching to the
     * currently active space (same @p asid and @p pageTable) is free —
     * shared-address-space scheduling costs nothing at the MMU.
     * A @p rangeTable of nullptr is only legal when the configuration
     * has no range TLBs.
     */
    void switchContext(tlb::Asid asid, const vm::PageTable &pageTable,
                       const vm::RangeTable *rangeTable, bool flushTlbs);

    /**
     * TLB-shootdown receiver: drop every cached translation tagged
     * @p asid overlapping [@p vbase, @p vlimit) — page TLBs, range
     * TLBs, and the paging-structure caches. @p initiator marks the
     * core that issued the remap (its local invalidation is part of the
     * remap, not a "received" shootdown).
     * @return number of TLB entries invalidated.
     */
    unsigned shootdownInvalidate(Addr vbase, Addr vlimit, tlb::Asid asid,
                                 bool initiator);

    /**
     * Initiator-side shootdown cost: charge this core the broadcast's
     * cycle and energy cost (config shootdown* knobs) for interrupting
     * @p remoteCores cores that invalidated @p entriesInvalidated
     * entries in total.
     */
    void chargeShootdown(unsigned remoteCores,
                         unsigned entriesInvalidated);

    /**
     * Initiator-side hardware-coherence cost (config coh* knobs): one
     * filter probe that targeted @p targetCores sharer cores, whose
     * invalidations dropped @p entriesInvalidated entries in total.
     * @p version is the space's post-remap translation version (tags
     * the provenance event). The architectural invalidation work is
     * charged nowhere else — hw mode's book is exactly this.
     */
    void chargeCoherenceProbe(unsigned targetCores,
                              unsigned entriesInvalidated,
                              std::uint64_t version, Addr vbase);

    /** Targeted-side receipt of one hw-coherence invalidation message
     *  (the hw-mode analogue of a received shootdown IPI). */
    void receiveCoherenceInvalidation() { ++stats_.cohInvalidationsReceived; }

    /** The ASID tagging this core's fills and lookups. */
    tlb::Asid asid() const { return asid_; }

    const MmuConfig &config() const { return cfg_; }
    const MmuStats &stats() const { return stats_; }

    /** Full energy report (Table-3 model; Figure 2/10 breakdown). */
    energy::EnergyReport energyReport() const;

    /** The Lite controller, or nullptr when Lite is disabled. */
    const lite::LiteController *lite() const { return lite_.get(); }

    /**
     * Attach a differential checker (not owned; may be null to detach).
     * Every subsequent translation outcome is cross-checked against the
     * golden model, and way masks are audited periodically.
     */
    void setChecker(check::ShadowChecker *checker) { checker_ = checker; }

    /**
     * Register every MMU metric — structure hit/miss/fill counters,
     * datapath event counters, per-structure energy, way-activity
     * histograms, and (when Lite runs) the lite.* counters — into
     * @p registry. Multicore runs pass a @p prefix (e.g. "core2.") so
     * each core's metrics stay distinct. Bindings are non-owning: the
     * registry must not be read after this Mmu is destroyed.
     */
    void registerMetrics(obs::MetricRegistry &registry,
                         const std::string &prefix = "") const;

    /** Label telemetry records with this core's id (default 0). */
    void setCoreId(unsigned core) { coreId_ = core; }

    /**
     * Attach a per-interval telemetry sink (not owned; null detaches).
     * One IntervalRecord is emitted per Lite interval (or per
     * config().lite.intervalInstructions when Lite is disabled).
     */
    void setTelemetry(obs::TelemetrySink *sink);

    /**
     * Attach a decision tracer (not owned; null detaches). The trace
     * clock is bound to this MMU's retired-instruction counter, and
     * the Lite controller's decisions are traced per TLB track.
     */
    void setTrace(obs::TraceWriter *trace);

    /** Bind the fault injector's counters for telemetry reporting. */
    void setInjectStats(const check::InjectStats *stats);

    /**
     * Attach an energy-provenance sink (not owned; null detaches).
     * Every subsequent charge emits one event carrying the exact pJ
     * value the meter received, so the sink's per-structure totals stay
     * bit-identical to the meters. Call after setCoreId() — events are
     * labeled with the core id current at emission time, and the Lite
     * controller's resize hook binds the id at attach time. No-op in
     * EAT_NO_PROVENANCE builds.
     */
    void setProvenance(obs::ProvenanceSink *sink);

    /** Total dynamic energy charged so far (all meters). */
    PicoJoules dynamicEnergyTotal() const;

    /** Read only by perfbench; remove with the next benchmark change. */
    void setFrontCacheEnabled(bool) {}

    /** Read only by perfbench; remove with the next benchmark change. */
    std::uint64_t frontCacheHits() const { return 0; }

    // --- introspection for tests and reports ---
    tlb::SetAssocTlb &l1Tlb4K() { return *l1Page4K_; }
    tlb::SetAssocTlb *l1Tlb2M() { return l1Page2M_.get(); }
    tlb::SetAssocTlb *l1Tlb1G() { return l1Page1G_.get(); }
    tlb::SetAssocTlb &l2Tlb() { return *l2Page_; }
    tlb::RangeTlb *l1RangeTlb() { return l1Range_.get(); }
    tlb::RangeTlb *l2RangeTlb() { return l2Range_.get(); }
    tlb::MmuCache &mmuCache() { return mmuCache_; }
    tlb::MmuCache *hostPwc() { return hostPwc_.get(); }
    const vm::HostTable *hostTable() const { return hostTable_.get(); }
    l3::CacheTlb *l3CacheTlb() { return l3Cache_.get(); }
    l3::DramTlb *l3DramTlb() { return l3Dram_.get(); }

    bool l1Tlb2MEnabled() const { return enabled2M_; }
    bool l1RangeEnabled() const { return enabledL1Range_; }
    bool l2RangeEnabled() const { return enabledL2Range_; }

  private:
    /** A structure's energy meter plus its (resizable) coefficients. */
    struct Metered
    {
        energy::EnergyMeter meter;
        /** Read/write coefficients indexed by log2(active ways); fixed
         *  structures use index 0 only. */
        std::vector<energy::EnergyCoefficients> coeffByLogWays;
        MilliWatts fullLeakage = 0.0;
        obs::ProvStruct id = obs::ProvStruct::None;
    };

    void chargeRead(Metered &m, unsigned logWays = 0, bool hit = false);
    void chargeWrite(Metered &m, unsigned logWays = 0,
                     unsigned psShift = 0);
    void chargeWalkMemory(unsigned refs, bool rangeWalk,
                          unsigned leafLevel = 0);

    /** Charge the host dimension of one nested walk: host-PWC probe
     *  and fills per host walk, plus every host-walk memory reference
     *  (hostWalkMemMeter_ + HostWalkMem provenance + cycles). */
    void chargeNestedWalk(const vm::NestedWalkResult &walk);

    /** Provenance: record that a fill displaced a live entry. */
    void provEvict(const Metered &m, bool evicted);

    /** Provenance: close the translation opened at access() entry. */
    void provEnd(std::string_view source, unsigned psShift, bool l1Hit);

    /**
     * Leakage power of the enabled structures. @p gated uses the
     * currently active way counts (disabled ways power-gated, §6.2);
     * otherwise every way of every enabled structure leaks.
     */
    MilliWatts leakagePower(bool gated) const;

    /** Fill a page entry into the right L1 structure (+ enable mask). */
    void fillL1Page(const tlb::TlbEntry &entry);

    /** Perfect page-size oracle for TLB_PP. */
    vm::PageSize predictPageSize(Addr vaddr) const;

    /** Report a served page translation to the attached checker. */
    void checkPageHit(Addr vaddr, const tlb::TlbEntry &entry,
                      HitSource src);

    /** Audit the way masks of all page TLBs (periodic, Full level). */
    void auditWayMasks();

    /** L2-miss-path probe of the L3 tier. Serves the access completely
     *  (L1/L2 refills, checker, provenance close) on a hit.
     *  @return true when the tier served the translation. */
    bool probeL3(Addr vaddr);

    /** Park a walked translation in the L3 tier per insertion policy. */
    void fillL3(const tlb::TlbEntry &entry);

    /** Close the current telemetry interval and emit its record. */
    void emitIntervalRecord(InstrCount intervalInstructions);

    static unsigned logWaysOf(const tlb::SetAssocTlb &t);

    MmuConfig cfg_;
    const vm::PageTable *pageTable_;
    const vm::RangeTable *rangeTable_;
    tlb::Asid asid_ = 0;
    unsigned coreId_ = 0;

    // Structures. l1Page4K_ doubles as the mixed L1 in TLB_PP mode, and
    // l2Page_ as the mixed L2.
    std::unique_ptr<tlb::SetAssocTlb> l1Page4K_;
    std::unique_ptr<tlb::SetAssocTlb> l1Page2M_;
    std::unique_ptr<tlb::FullyAssocTlb> l1Page1G_;
    std::unique_ptr<tlb::SetAssocTlb> l2Page_;
    std::unique_ptr<tlb::RangeTlb> l1Range_;
    std::unique_ptr<tlb::RangeTlb> l2Range_;
    tlb::MmuCache mmuCache_;
    tlb::PageWalker walker_;

    // Nested paging (all null / unused in flat runs). In identity-host
    // mode the walker is engaged but its host dimension contributes
    // nothing, so those runs stay digest-identical to flat runs.
    std::unique_ptr<vm::HostTable> hostTable_;
    std::unique_ptr<tlb::MmuCache> hostPwc_;
    std::unique_ptr<vm::NestedWalker> nestedWalker_;
    std::unique_ptr<tlb::RangeTableWalker> rangeWalker_;

    // L3 translation tier (at most one non-null; both null = --l3=none,
    // which keeps every meter below untouched and digests unchanged).
    std::unique_ptr<l3::CacheTlb> l3Cache_;
    std::unique_ptr<l3::DramTlb> l3Dram_;
    std::unique_ptr<lite::LiteController> lite_;
    check::ShadowChecker *checker_ = nullptr;

    // Static masks (paper §3.1): a structure consumes energy only after
    // the first fill of its kind. The 4 KB structures start enabled.
    bool enabled2M_ = false;
    bool enabled1G_ = false;
    bool enabledL1Range_ = false;
    bool enabledL2Range_ = false;

    // Energy meters.
    Metered m4K_, m2M_, m1G_, mL2_, mL1Range_, mL2Range_;
    Metered mPde_, mPdpte_, mPml4_;
    energy::EnergyMeter walkMemMeter_;
    energy::EnergyMeter rangeWalkMemMeter_;
    /** Host dimension: one lumped host-PWC meter (reads == host walks)
     *  and the host-walk memory-reference meter. Both stay untouched
     *  in flat and identity-host runs. */
    Metered mHostPwc_;
    energy::EnergyMeter hostWalkMemMeter_;
    /** L3 tier meters. mL3_ (cache mode) has one coefficient slot: the
     *  full-LLC access. mDram_ (dram mode) has two: index 0 the SRAM
     *  tag cache, index 1 the DRAM array — chargeRead/chargeWrite's
     *  logWays argument selects the stage, so provenance reconciles
     *  through the standard path. */
    Metered mL3_, mDram_;
    PicoJoules walkRefEnergy_ = 0.0; ///< blended L1/L2 cache read energy

    MmuStats stats_;
    InstrCount instrTowardInterval_ = 0;

    // Observability attachments (all non-owning, all optional).
    obs::TelemetrySink *telemetry_ = nullptr;
    obs::TraceWriter *trace_ = nullptr;
    obs::ProvenanceSink *prov_ = nullptr;
    const check::InjectStats *injectStats_ = nullptr;

    /** Cumulative values at the last closed telemetry interval. */
    struct IntervalSnapshot
    {
        InstrCount instructions = 0;
        std::uint64_t memOps = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t hostWalkRefs = 0;
        std::uint64_t l3Probes = 0;
        std::uint64_t l3Hits = 0;
        Cycles missCycles = 0;
        PicoJoules dynamicPj = 0.0;
        std::uint64_t checkMismatches = 0;
        std::uint64_t faultsInjected = 0;
    };
    IntervalSnapshot lastInterval_;
    std::uint64_t intervalIndex_ = 0;

    // Static (leakage) energy integrals (paper §6.2).
    PicoJoules staticGatedPj_ = 0.0;
    PicoJoules staticFullPj_ = 0.0;

    /**
     * Memoized leakagePower() results: the inputs (way masks and
     * enable masks) change only at interval boundaries and fills, but
     * tick() integrates leakage on every operation batch. The cached
     * doubles are the exact values leakagePower() returned, so the
     * integrals stay bit-identical.
     */
    struct LeakCache
    {
        bool valid = false;
        unsigned lw4K = 0;
        unsigned lw2M = 0;
        unsigned lw1G = 0;
        std::uint8_t enabled = 0;
        MilliWatts gated = 0.0;
        MilliWatts full = 0.0;
    };
    LeakCache leakCache_;

    /**
     * Per-gap static-energy deltas derived from leakCache_: slot n
     * holds exactly the doubles `leakCache_.gated * (n / f)` and
     * `leakCache_.full * (n / f)` that tick(n) would compute, so the
     * common small gaps skip the divide and multiplies while the
     * accumulators see bit-identical addends. Cleared whenever
     * leakCache_ refreshes.
     */
    struct TickDelta
    {
        bool valid = false;
        double gatedPj = 0.0;
        double fullPj = 0.0;
    };
    static constexpr std::size_t kTickDeltaSlots = 64;
    std::array<TickDelta, kTickDeltaSlots> tickDeltas_{};

    /** tick() off the fast path: recompute the leakage inputs, refresh
     *  leakCache_/tickDeltas_, charge, and run the interval clock. */
    void tickSlow(InstrCount n);

    /** Drain instrTowardInterval_: Lite decisions, generation bumps,
     *  telemetry records — one round per whole interval elapsed. */
    void tickIntervals();

    energy::CactiLite cacti_;
};

} // namespace eat::core

#endif // EAT_CORE_MMU_HH
