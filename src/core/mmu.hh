/**
 * @file
 * The per-core MMU: the complete address-translation datapath.
 *
 * One Mmu instance wires up the TLB hierarchy of a configuration
 * (core/config.hh), charges the Table-3 energy model on every access,
 * applies the Table-3 cycle model, and drives the Lite controller at
 * interval boundaries.
 *
 * The constructor describes each metered structure once (one Structure
 * per obs::ProvStruct id: its meter, coefficients, static mask, report
 * row and metric name); everything that covers "all structures" —
 * context switches, shootdowns, leakage, reports, metrics — iterates
 * those descriptions. access() runs four stages, each a member
 * function; the first three return true once they have served the
 * translation, and the walk serves whatever reaches it:
 *
 *   1. L1 stage: every *enabled* L1 structure is searched in parallel
 *      and charged a read. One probe helper covers each L1 page TLB
 *      (the 4 KB, mixed or combined TLB, then the 2 MB and 1 GB TLBs
 *      once unmasked); when the L1-range TLB hits, the page TLBs are
 *      charged but not looked up (DESIGN §5.1). A structure for a page
 *      size (or for ranges) is statically masked — zero energy — until
 *      the first fill of its kind (paper §3.1).
 *   2. L2 stage: on an L1 miss the enabled L2 structures are searched
 *      in parallel (7 cycles). An L2-page hit refills the matching L1
 *      TLB; an L2-range hit refills the L1-range TLB (if present) and
 *      a synthesized page entry into the L1 (RMM semantics).
 *   3. L3 stage: with an L3 tier configured, an L2 miss probes it; a
 *      hit refills the L1 and L2 TLBs and skips the walk.
 *   4. Walk stage: the page walk (50 cycles). The MMU caches determine
 *      the 1-4 memory references; in RMM configurations the range-table
 *      walker also runs in the background (energy, no cycles) and
 *      refills the L2-range TLB.
 *
 * Every fill goes through one helper (lift the static mask, charge the
 * write, fill, record the eviction). TLB_PP's predicted page size is
 * computed once per access and indexes both mixed TLBs.
 */

#ifndef EAT_CORE_MMU_HH
#define EAT_CORE_MMU_HH

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
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

    // The structure descriptions point into this object.
    Mmu(const Mmu &) = delete;
    Mmu &operator=(const Mmu &) = delete;

    /** Translate one memory operation at @p vaddr. */
    void access(Addr vaddr);

    /**
     * Retire @p n instructions: integrate the static energy (paper
     * §6.2) and run the interval clock that drives Lite and telemetry.
     * With a base CPI of 1, n instructions take n / f nanoseconds, and
     * pJ = mW * ns. A gap below kTickAddends adds the product
     * refreshLeakage() built for it; a longer gap computes the same
     * expression.
     */
    void
    tick(InstrCount n)
    {
        stats_.instructions += n;
        if (n < kTickAddends) {
            staticGatedPj_ += tickAddends_[n].gated;
            staticFullPj_ += tickAddends_[n].full;
        } else {
            const double ns = static_cast<double>(n) / cfg_.clockGhz;
            staticGatedPj_ += leakGated_ * ns;
            staticFullPj_ += leakFull_ * ns;
        }
        // The interval clock runs only when a consumer is attached.
        if (!lite_ && !telemetry_)
            return;
        instrTowardInterval_ += n;
        if (instrTowardInterval_ >= cfg_.lite.intervalInstructions)
            tickIntervals();
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
    l3::CacheTlb *l3CacheTlb() { return l3Cache_.get(); }

    bool
    l1Tlb2MEnabled() const
    {
        return at(obs::ProvStruct::L1Tlb2M).enabled;
    }
    bool
    l1RangeEnabled() const
    {
        return at(obs::ProvStruct::L1Range).enabled;
    }
    bool
    l2RangeEnabled() const
    {
        return at(obs::ProvStruct::L2Range).enabled;
    }

  private:
    /**
     * One metered structure of the organization, described once by the
     * constructor and stored at its obs::ProvStruct index.
     */
    struct Structure
    {
        /** Static mask lifted (paper §3.1): the structure draws energy
         *  only after the first fill of its kind. Structures without a
         *  mask start enabled; ones this organization lacks never are. */
        bool enabled = false;
        bool built = false;
        obs::ProvStruct id = obs::ProvStruct::None;
        /** The cache this meter charges. Null for the paging-structure
         *  caches and the walk-reference meters: the walkers own those. */
        std::variant<tlb::SetAssocTlb *, tlb::RangeTlb *, l3::CacheTlb *,
                     l3::DramTlb *>
            cache{};
        energy::EnergyMeter meter{};
        /** Read/write/leakage coefficients indexed by log2(active ways);
         *  fixed structures use index 0 (the DRAM TLB: 0 = SRAM tag
         *  cache, 1 = DRAM array). Empty for the walk-reference meters,
         *  which have no leakage. */
        std::vector<energy::EnergyCoefficients> coeffByLogWays{};
        /** Lookups bucketed by log2(active ways), or null. */
        stats::Histogram *wayLookups = nullptr;
        /** Energy-report row name and breakdown category. */
        std::string_view name;
        PicoJoules energy::EnergyBreakdown::*category = nullptr;
        /** Metric name: "l1_tlb4k" registers energy.l1_tlb4k and, for
         *  a TLB, the l1.tlb4k counters (first '_' read as '.'). */
        std::string_view metric;

        /** The page TLB this meter charges, or null. */
        tlb::SetAssocTlb *
        page() const
        {
            auto *p = std::get_if<tlb::SetAssocTlb *>(&cache);
            return p ? *p : nullptr;
        }

        /** Coefficient index of the current way mask: log2(active
         *  ways) for a resizable TLB, else 0. */
        unsigned
        coeffIndex() const
        {
            const auto *tlb = page();
            return tlb && coeffByLogWays.size() > 1 ? tlb->logActiveWays()
                                                    : 0;
        }
    };

    Structure &at(obs::ProvStruct id)
    {
        return structs_[static_cast<unsigned>(id)];
    }
    const Structure &at(obs::ProvStruct id) const
    {
        return structs_[static_cast<unsigned>(id)];
    }

    /** What the L1 stage's page-TLB probes found. */
    struct L1PageHit
    {
        bool hit = false;
        HitSource source = HitSource::L1Page4K;
        tlb::TlbEntry entry{};
    };

    // The four stages of access() (see the file comment). @p idxShift
    // indexes the 4 KB-slot L1 and the L2 TLB.
    bool l1Stage(Addr vaddr, unsigned idxShift);
    bool l2Stage(Addr vaddr, unsigned idxShift);
    bool l3Stage(Addr vaddr);
    void walkStage(Addr vaddr);

    /**
     * Probe @p tlb, the L1 page TLB at ProvStruct index @p level (0 = 4
     * KB slot, 1 = 2 MB, 2 = 1 GB): look the entry up unless the
     * L1-range TLB served the access, charge the read, record the way
     * histogram and report Lite utility. A hit lands in @p hit.
     */
    void probeL1(unsigned level, tlb::SetAssocTlb &tlb, Addr vaddr,
                 unsigned idxShift, bool rangeHit, L1PageHit &hit);

    /**
     * The one fill path: lift @p s's static mask, charge the write at
     * coefficient @p coeff, install @p payload into @p cache and record
     * the eviction. @return true when a live entry was evicted.
     */
    template <typename Cache, typename... Payload>
    bool fill(Structure &s, unsigned coeff, unsigned psShift, Cache &cache,
              const Payload &...payload);

    void chargeRead(Structure &s, unsigned coeff = 0, bool hit = false);
    void chargeWrite(Structure &s, unsigned coeff = 0,
                     unsigned psShift = 0);

    /**
     * Charge @p refs memory references of one walk to @p s, a
     * walk-reference meter (guest, range or host walks), with one
     * provenance event each. A page walk fetches top-down from level
     * @p leafLevel + refs - 1; range walks report level 0.
     */
    void chargeWalkRefs(Structure &s, unsigned refs, unsigned leafLevel);

    /** Charge the host dimension of one nested walk: host-PWC probe
     *  and fills per host walk, plus every host-walk memory reference
     *  (HostWalkMem meter + provenance + cycles). */
    void chargeNestedWalk(const vm::NestedWalkResult &walk);

    /** Provenance: record that a fill displaced a live entry. */
    void provEvict(const Structure &s, bool evicted);

    /** Provenance: close the translation opened at access() entry. */
    void provEnd(std::string_view source, unsigned psShift, bool l1Hit);

    /**
     * Leakage power of the enabled structures. @p gated uses the
     * currently active way counts (disabled ways power-gated, §6.2);
     * otherwise every way of every enabled structure leaks.
     */
    MilliWatts leakagePower(bool gated) const;

    /** Fill a page entry into the L1 structure its size routes to. */
    void fillL1Page(const tlb::TlbEntry &entry);

    /** Perfect page-size oracle for TLB_PP. */
    vm::PageSize predictPageSize(Addr vaddr) const;

    /** Report a served page translation to the attached checker. */
    void checkPageHit(Addr vaddr, const tlb::TlbEntry &entry,
                      HitSource src);

    /** Audit the way masks of all page TLBs (periodic, Full level). */
    void auditWayMasks();

    /** The walk stage's L3 fill: park a walked translation in the tier
     *  per its insertion policy. */
    void fillL3(const tlb::TlbEntry &entry);

    /** Close the current telemetry interval and emit its record. */
    void emitIntervalRecord(InstrCount intervalInstructions);

    MmuConfig cfg_;
    const vm::PageTable *pageTable_;
    const vm::RangeTable *rangeTable_;
    tlb::Asid asid_ = 0;
    unsigned coreId_ = 0;

    // Structures. l1Page4K_ doubles as the mixed L1 in TLB_PP mode and
    // as the combined L1, and l2Page_ as the mixed L2.
    std::unique_ptr<tlb::SetAssocTlb> l1Page4K_;
    std::unique_ptr<tlb::SetAssocTlb> l1Page2M_;
    std::unique_ptr<tlb::SetAssocTlb> l1Page1G_;
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
    // which keeps every meter untouched and digests unchanged).
    std::unique_ptr<l3::CacheTlb> l3Cache_;
    std::unique_ptr<l3::DramTlb> l3Dram_;
    /** stats_.l2Hits at the last L3 probe: an L2 hit in between ends
     *  the miss streak the cache tier's PtePromote policy watches. */
    std::uint64_t l2HitsAtL3Probe_ = 0;
    std::unique_ptr<lite::LiteController> lite_;
    check::ShadowChecker *checker_ = nullptr;

    /** Every metered structure, indexed by ProvStruct. */
    std::array<Structure, obs::kProvMeteredStructs> structs_;
    /** The L1 structure each page size fills (by ProvStruct). */
    std::array<obs::ProvStruct, vm::kNumPageSizes> l1ForSize_{};
    PicoJoules walkRefEnergy_ = 0.0; ///< blended L1/L2 cache read energy

    MmuStats stats_;
    InstrCount instrTowardInterval_ = 0;

    // Observability attachments (all non-owning, all optional).
    obs::TelemetrySink *telemetry_ = nullptr;
    obs::TraceWriter *trace_ = nullptr;
    obs::ProvenanceSink *prov_ = nullptr;
    const check::InjectStats *injectStats_ = nullptr;

    /** stats_ at the last closed telemetry interval, and the totals
     *  kept outside it: each record reports the deltas since. */
    MmuStats lastStats_;
    PicoJoules lastDynamicPj_ = 0.0;
    std::uint64_t lastMismatches_ = 0;
    std::uint64_t lastInjected_ = 0;
    std::uint64_t intervalIndex_ = 0;

    // Static (leakage) energy integrals (paper §6.2).
    PicoJoules staticGatedPj_ = 0.0;
    PicoJoules staticFullPj_ = 0.0;

    /** leakagePower(true) and leakagePower(false) as of the last
     *  refreshLeakage(). */
    MilliWatts leakGated_ = 0.0;
    MilliWatts leakFull_ = 0.0;

    /** tick(n)'s addends for each gap n below kTickAddends: exactly the
     *  doubles `leakage * (n / f)` a longer gap computes. */
    struct TickAddend
    {
        PicoJoules gated = 0.0;
        PicoJoules full = 0.0;
    };
    static constexpr InstrCount kTickAddends = 64;
    std::array<TickAddend, kTickAddends> tickAddends_{};

    /**
     * Recompute the leakage and the tick addends. leakagePower() reads
     * only each structure's enable flag and way count, so three places
     * call this: the constructor, fill()'s static-mask lift, and
     * tickIntervals() after Lite's decision. A spurious-enable fault
     * changes a way count without the Mmu knowing; its leakage takes
     * effect at the next refresh.
     */
    void refreshLeakage();

    /** Drain instrTowardInterval_, one round per whole interval
     *  elapsed: Lite's decision, then the telemetry record. */
    void tickIntervals();

    energy::CactiLite cacti_;
};

} // namespace eat::core

#endif // EAT_CORE_MMU_HH
