#include "core/mmu.hh"

#include "base/logging.hh"
#include "check/fault_injector.hh"
#include "energy/coefficients.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace eat::core
{

namespace
{

using energy::StructClass;
using obs::ProvStruct;

/** Coefficients for every power-of-two downsizing of a page TLB. */
std::vector<energy::EnergyCoefficients>
resizableCoeffs(const energy::CactiLite &cacti, StructClass cls,
                const tlb::SetAssocTlb &tlb)
{
    std::vector<energy::EnergyCoefficients> out(floorLog2(tlb.ways()) + 1);
    for (unsigned lw = 0; lw < out.size(); ++lw) {
        const unsigned ways = 1u << lw;
        out[lw] = cacti.estimate(cls, tlb.sets() * ways, ways);
    }
    return out;
}

/** The L1 page TLBs lead ProvStruct: the 4 KB slot (4 KB, mixed or
 *  combined TLB), 2 MB, 1 GB — also the order Lite monitors them in and
 *  the order of their HitSources, so one level indexes all three. */
constexpr unsigned kL1PageTlbs = 3;
static_assert(static_cast<unsigned>(ProvStruct::L1Tlb1G) == 2 &&
              static_cast<unsigned>(HitSource::L1Page1G) == 2);

/** Energy-report row order: ProvStruct order, except that the L1-range
 *  row precedes the L2 row (the rows are in every result digest). */
constexpr std::array kReportOrder{
    ProvStruct::L1Tlb4K,  ProvStruct::L1Tlb2M,      ProvStruct::L1Tlb1G,
    ProvStruct::L1Range,  ProvStruct::L2Tlb,        ProvStruct::L2Range,
    ProvStruct::PwcPde,   ProvStruct::PwcPdpte,     ProvStruct::PwcPml4,
    ProvStruct::WalkMem,  ProvStruct::RangeWalkMem, ProvStruct::HostPwc,
    ProvStruct::HostWalkMem, ProvStruct::L3Tlb,     ProvStruct::DramTlb};

/** leakagePower()'s summation order, which the result digests pin: the
 *  structures every organization builds, then the optional ones. The
 *  host PWC is missing: its leakage has never been counted (ROADMAP). */
constexpr std::array kLeakOrder{
    ProvStruct::L1Tlb4K, ProvStruct::L2Tlb,   ProvStruct::PwcPde,
    ProvStruct::PwcPdpte, ProvStruct::PwcPml4, ProvStruct::L1Tlb2M,
    ProvStruct::L1Tlb1G, ProvStruct::L1Range, ProvStruct::L2Range,
    ProvStruct::L3Tlb,   ProvStruct::DramTlb};

/** Apply @p fn to every cache the structures @p structs meter. */
template <typename Structs, typename Fn>
void
forEachCache(Structs &structs, Fn fn)
{
    for (auto &s : structs) {
        std::visit(
            [&](auto *cache) {
                if (cache)
                    fn(*cache);
            },
            s.cache);
    }
}

} // namespace

Mmu::Mmu(const MmuConfig &config, const vm::PageTable &pageTable,
         const vm::RangeTable *rangeTable)
    : cfg_(config),
      pageTable_(&pageTable),
      rangeTable_(rangeTable),
      mmuCache_(config.mmuCache),
      walker_(pageTable, mmuCache_)
{
    eat_check_fatal(cfg_.validate());
    using B = energy::EnergyBreakdown;
    auto describe = [this](Structure s) {
        s.built = true;
        at(s.id) = std::move(s);
    };
    auto fixed = [this](StructClass cls, unsigned entries, unsigned ways) {
        return std::vector<energy::EnergyCoefficients>{
            cacti_.estimate(cls, entries, ways)};
    };

    // --- the organization: each metered structure described once ---
    // The 4 KB slot: §4.4's combined fully associative L1 holds every
    // page size (full associativity matches mixed sizes natively), and
    // TLB_PP's mixed L1 does through the predicted index; either one
    // takes every L1 page fill.
    if (cfg_.combinedFullyAssocL1) {
        l1Page4K_ = std::make_unique<tlb::SetAssocTlb>(
            "L1-combined TLB", cfg_.combinedL1Entries,
            cfg_.combinedL1Entries, 12);
    } else {
        l1Page4K_ = std::make_unique<tlb::SetAssocTlb>(
            cfg_.mixedTlbs ? "L1-mixed TLB" : "L1-4KB TLB",
            cfg_.l1Tlb4K.entries, cfg_.l1Tlb4K.ways, 12);
    }
    const auto l1Class = cfg_.combinedFullyAssocL1 ? StructClass::L1TlbMixedFA
                                                   : StructClass::L1Tlb4K;
    describe({.enabled = true, .id = ProvStruct::L1Tlb4K,
              .cache = l1Page4K_.get(),
              .coeffByLogWays = resizableCoeffs(cacti_, l1Class, *l1Page4K_),
              .wayLookups = &stats_.l1WayLookups4K,
              .name = l1Page4K_->name(), .category = &B::l1Tlb,
              .metric = "l1_tlb4k"});
    l1ForSize_.fill(ProvStruct::L1Tlb4K);
    if (!cfg_.mixedTlbs && !cfg_.combinedFullyAssocL1) {
        l1Page2M_ = std::make_unique<tlb::SetAssocTlb>(
            "L1-2MB TLB", cfg_.l1Tlb2M.entries, cfg_.l1Tlb2M.ways, 21);
        // Fully associative: one set of all its entries.
        l1Page1G_ = std::make_unique<tlb::SetAssocTlb>(
            "L1-1GB TLB", cfg_.l1Tlb1GEntries, cfg_.l1Tlb1GEntries, 30);
        describe({.id = ProvStruct::L1Tlb2M, .cache = l1Page2M_.get(),
                  .coeffByLogWays = resizableCoeffs(
                      cacti_, StructClass::L1Tlb2M, *l1Page2M_),
                  .wayLookups = &stats_.l1WayLookups2M,
                  .name = l1Page2M_->name(), .category = &B::l1Tlb,
                  .metric = "l1_tlb2m"});
        describe({.id = ProvStruct::L1Tlb1G, .cache = l1Page1G_.get(),
                  .coeffByLogWays = resizableCoeffs(
                      cacti_, StructClass::L1Tlb1G, *l1Page1G_),
                  .name = l1Page1G_->name(), .category = &B::l1Tlb,
                  .metric = "l1_tlb1g"});
        l1ForSize_ = {ProvStruct::L1Tlb4K, ProvStruct::L1Tlb2M,
                      ProvStruct::L1Tlb1G};
    }

    l2Page_ = std::make_unique<tlb::SetAssocTlb>(
        cfg_.mixedTlbs ? "L2-mixed TLB" : "L2-4KB TLB", cfg_.l2Tlb.entries,
        cfg_.l2Tlb.ways, 12);
    describe({.enabled = true, .id = ProvStruct::L2Tlb,
              .cache = l2Page_.get(),
              .coeffByLogWays = fixed(StructClass::L2Tlb4K,
                                      cfg_.l2Tlb.entries, cfg_.l2Tlb.ways),
              .name = l2Page_->name(), .category = &B::l2Tlb,
              .metric = "l2_tlb"});

    if (cfg_.hasL1Range) {
        l1Range_ = std::make_unique<tlb::RangeTlb>("L1-range TLB",
                                                   cfg_.l1RangeEntries);
        describe({.id = ProvStruct::L1Range, .cache = l1Range_.get(),
                  .coeffByLogWays = fixed(StructClass::L1RangeTlb,
                                          cfg_.l1RangeEntries, 0),
                  .name = l1Range_->name(), .category = &B::l1Tlb,
                  .metric = "l1_range"});
    }
    if (cfg_.hasL2Range) {
        l2Range_ = std::make_unique<tlb::RangeTlb>("L2-range TLB",
                                                   cfg_.l2RangeEntries);
        describe({.id = ProvStruct::L2Range, .cache = l2Range_.get(),
                  .coeffByLogWays = fixed(StructClass::L2RangeTlb,
                                          cfg_.l2RangeEntries, 0),
                  .name = l2Range_->name(), .category = &B::l2Tlb,
                  .metric = "l2_range"});
    }

    // The walker owns the paging-structure caches; the MMU meters their
    // probes and fills, and the walks' memory references.
    const auto &pwc = cfg_.mmuCache;
    describe({.enabled = true, .id = ProvStruct::PwcPde,
              .coeffByLogWays = fixed(StructClass::MmuPde, pwc.pdeEntries,
                                      pwc.pdeWays),
              .name = "MMU-cache-PDE", .category = &B::mmuCache,
              .metric = "mmu_pde"});
    describe({.enabled = true, .id = ProvStruct::PwcPdpte,
              .coeffByLogWays = fixed(StructClass::MmuPdpte,
                                      pwc.pdpteEntries, 0),
              .name = "MMU-cache-PDPTE", .category = &B::mmuCache,
              .metric = "mmu_pdpte"});
    describe({.enabled = true, .id = ProvStruct::PwcPml4,
              .coeffByLogWays = fixed(StructClass::MmuPml4,
                                      pwc.pml4Entries, 0),
              .name = "MMU-cache-PML4", .category = &B::mmuCache,
              .metric = "mmu_pml4"});
    describe({.enabled = true, .id = ProvStruct::WalkMem,
              .name = "page-walk memory", .category = &B::pageWalkMem,
              .metric = "walk_mem"});
    if (cfg_.hasL1Range || cfg_.hasL2Range) {
        eat_assert(rangeTable_ != nullptr,
                   "range TLBs require a range table");
        rangeWalker_ = std::make_unique<tlb::RangeTableWalker>(*rangeTable_);
        describe({.enabled = true, .id = ProvStruct::RangeWalkMem,
                  .name = "range-walk memory", .category = &B::rangeWalkMem,
                  .metric = "range_walk_mem"});
    }

    // Nested paging: the host dimension mirrors the guest machinery — a
    // host table, its own paging-structure cache, and the composed
    // two-dimensional walker. One lumped meter covers the host PWC
    // (one probe per host walk; same PDE-class coefficients).
    if (cfg_.vmEnabled) {
        vm::HostTableConfig hostCfg;
        hostCfg.mode = cfg_.vmIdentityHost ? vm::HostMode::Identity
                                           : vm::HostMode::Paged;
        hostCfg.pageSize = cfg_.hostPageSize;
        hostTable_ = std::make_unique<vm::HostTable>(hostCfg);
        hostPwc_ = std::make_unique<tlb::MmuCache>(cfg_.hostPwc);
        nestedWalker_ = std::make_unique<vm::NestedWalker>(
            pageTable, mmuCache_, *hostTable_, *hostPwc_);
        describe({.enabled = true, .id = ProvStruct::HostPwc,
                  .coeffByLogWays = fixed(StructClass::MmuPde,
                                          cfg_.hostPwc.pdeEntries,
                                          cfg_.hostPwc.pdeWays),
                  .name = "host-PWC", .category = &B::mmuCache,
                  .metric = "host_pwc"});
        describe({.enabled = true, .id = ProvStruct::HostWalkMem,
                  .name = "host-walk memory", .category = &B::hostWalkMem,
                  .metric = "host_walk_mem"});
    }

    // L3 translation tier: at most one substrate behind the L2 TLBs.
    // Both reuse the standard charge paths; the coefficient index
    // selects the stage (dram: 0 = SRAM tag cache, 1 = DRAM array), so
    // provenance reconciles with no new machinery.
    if (cfg_.l3Mode == l3::L3Mode::Cache) {
        l3Cache_ = std::make_unique<l3::CacheTlb>(cfg_.l3Cache, cacti_);
        describe({.enabled = true, .id = ProvStruct::L3Tlb,
                  .cache = l3Cache_.get(),
                  .coeffByLogWays = {l3Cache_->coefficients()},
                  .name = "L3-cache TLB", .category = &B::l3Tlb,
                  .metric = "l3_tlb"});
    } else if (cfg_.l3Mode == l3::L3Mode::Dram) {
        l3Dram_ = std::make_unique<l3::DramTlb>(cfg_.l3Dram, cacti_);
        describe({.enabled = true, .id = ProvStruct::DramTlb,
                  .cache = l3Dram_.get(),
                  .coeffByLogWays = {l3Dram_->tagCoefficients(),
                                     l3Dram_->dramCoefficients()},
                  .name = "DRAM TLB", .category = &B::l3Tlb,
                  .metric = "dram_tlb"});
    }

    // Lite monitors the L1 page TLBs; each sizes its way histogram.
    std::vector<tlb::SetAssocTlb *> monitored;
    for (unsigned i = 0; i < kL1PageTlbs; ++i) {
        const Structure &s = structs_[i];
        if (!s.built)
            continue;
        monitored.push_back(s.page());
        if (s.wayLookups)
            s.wayLookups->ensureBuckets(floorLog2(s.page()->ways()) + 1);
    }
    if (cfg_.liteEnabled) {
        lite_ = std::make_unique<lite::LiteController>(cfg_.lite,
                                                       std::move(monitored));
    }

    // Page-walk references: a blend of L1 and L2 data-cache reads
    // controlled by the Figure-3 locality knob.
    const auto l1c = cacti_.estimate(StructClass::L1Cache, 512, 8);
    const double h = cfg_.walkL1CacheHitRatio;
    eat_assert(h >= 0.0 && h <= 1.0, "walkL1CacheHitRatio out of [0,1]");
    walkRefEnergy_ = h * l1c.read + (1.0 - h) * cacti_.l2CacheReadEnergy();
    refreshLeakage();
}

[[gnu::always_inline]] inline void
Mmu::chargeRead(Structure &s, unsigned coeff, bool hit)
{
    eat_assert(coeff < s.coeffByLogWays.size(), "bad coefficient index");
    const PicoJoules pj = s.coeffByLogWays[coeff].read;
    s.meter.chargeRead(pj);
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({stats_.instructions, 0, pj, obs::ProvKind::Probe,
                     s.id, coreId_, asid_, 0, hit, 1u << coeff, 0});
    }
}

void
Mmu::chargeWrite(Structure &s, unsigned coeff, unsigned psShift)
{
    eat_assert(coeff < s.coeffByLogWays.size(), "bad coefficient index");
    const PicoJoules pj = s.coeffByLogWays[coeff].write;
    s.meter.chargeWrite(pj);
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({stats_.instructions, 0, pj, obs::ProvKind::Fill, s.id,
                     coreId_, asid_, static_cast<std::uint8_t>(psShift),
                     false, 1u << coeff, 0});
    }
}

template <typename Cache, typename... Payload>
bool
Mmu::fill(Structure &s, unsigned coeff, unsigned psShift, Cache &cache,
          const Payload &...payload)
{
    if (!s.enabled) { // the static mask lifts on the first fill
        s.enabled = true;
        refreshLeakage();
    }
    chargeWrite(s, coeff, psShift);
    const bool evicted = cache.fill(payload...);
    provEvict(s, evicted);
    return evicted;
}

void
Mmu::chargeWalkRefs(Structure &s, unsigned refs, unsigned leafLevel)
{
    // One event per reference, not refs * energy: repeated addition of
    // a double is not the same as multiplication, and the provenance
    // totals must stay bit-identical to the meter.
    for (unsigned i = 0; i < refs; ++i) {
        s.meter.chargeRead(walkRefEnergy_);
        if (EAT_PROV_ENABLED && prov_) {
            // A page walk fetches top-down: reference i touches level
            // leafLevel + refs - 1 - i. Range walks report level 0.
            const unsigned level = s.id == ProvStruct::RangeWalkMem
                                       ? 0
                                       : leafLevel + refs - 1 - i;
            prov_->emit({stats_.instructions, 0, walkRefEnergy_,
                         obs::ProvKind::WalkRef, s.id, coreId_, asid_, 0,
                         false, level, 0});
        }
    }
}

void
Mmu::chargeNestedWalk(const vm::NestedWalkResult &walk)
{
    stats_.hostWalks += walk.hostWalkCount;
    stats_.hostWalkMemRefs += walk.hostMemRefs;
    stats_.walkCycles +=
        cfg_.hostWalkCyclesPerRef * Cycles(walk.hostMemRefs);
    Structure &pwc = at(ProvStruct::HostPwc);
    Structure &mem = at(ProvStruct::HostWalkMem);
    const unsigned leaf = tlb::MmuCache::leafLevel(hostTable_->pageSize());
    for (unsigned w = 0; w < walk.hostWalkCount; ++w) {
        const auto &host = walk.hostWalks[w];
        // One lumped host-PWC probe per host walk (reads == hostWalks,
        // the accounting oracle's anchor) plus one write per entry the
        // walk installed.
        chargeRead(pwc, 0, host.pwcHit);
        for (unsigned f = 0; f < host.pwcFills; ++f)
            chargeWrite(pwc);
        chargeWalkRefs(mem, host.memRefs, leaf);
    }
}

void
Mmu::provEvict(const Structure &s, bool evicted)
{
    if (EAT_PROV_ENABLED && prov_ && evicted) {
        prov_->emit({stats_.instructions, 0, 0.0, obs::ProvKind::Evict,
                     s.id, coreId_, asid_, 0, false, 0, 0});
    }
}

void
Mmu::provEnd(std::string_view source, unsigned psShift, bool l1Hit)
{
    if (EAT_PROV_ENABLED && prov_) {
        prov_->endTranslation(source, static_cast<std::uint8_t>(psShift),
                              l1Hit);
    }
}

vm::PageSize
Mmu::predictPageSize(Addr vaddr) const
{
    // TLB_PP's predictor is perfect and free (paper §5): consult the
    // page table directly without charging energy.
    auto t = pageTable_->translate(vaddr);
    if (!t)
        eat_panic("TLB_PP oracle consulted for unmapped address ", vaddr);
    return t->size;
}

void
Mmu::fillL1Page(const tlb::TlbEntry &entry)
{
    Structure &s = at(l1ForSize_[static_cast<unsigned>(entry.size)]);
    tlb::SetAssocTlb &tlb = *s.page();
    fill(s, tlb.logActiveWays(), entry.shift, tlb, entry);
}

[[gnu::always_inline]] inline void
Mmu::probeL1(unsigned level, tlb::SetAssocTlb &tlb, Addr vaddr,
             unsigned idxShift, bool rangeHit, L1PageHit &hit)
{
    Structure &s = structs_[level];
    const unsigned lw = tlb.logActiveWays();
    if (s.wayLookups)
        s.wayLookups->record(lw);
    // When the range translation provides this lookup, the page TLB
    // still burns lookup energy but its entry is not *used*: recency
    // is not refreshed and Lite records no utility. Otherwise
    // range-covered entries would pin themselves at the MRU end and
    // mask the utility signal of the traffic only the page TLBs serve.
    if (rangeHit) {
        chargeRead(s, lw);
        return;
    }
    // Only Lite reads the hit's LRU distance; no other lookup asks.
    const auto res = tlb.lookupWithShift(vaddr, idxShift, asid_,
                                         /*withDistance=*/lite_ != nullptr);
    chargeRead(s, lw, res.hit);
    if (!res.hit)
        return;
    eat_assert(!hit.hit, "address mapped by two page sizes");
    hit = {true, static_cast<HitSource>(level), res.entry};
    if (lite_)
        lite_->onTlbHit(level, res.lruDistance, true);
}

[[gnu::always_inline]] inline bool
Mmu::l1Stage(Addr vaddr, unsigned idxShift)
{
    // Every enabled L1 structure is searched in parallel. Lookups run
    // before their energy charge throughout: the charged coefficient
    // never depends on the outcome, and the provenance probe event
    // wants the hit flag.
    std::optional<vm::RangeTranslation> range;
    if (Structure &s = at(ProvStruct::L1Range); s.enabled) {
        range = l1Range_->lookup(vaddr, asid_);
        chargeRead(s, 0, range.has_value());
    }
    L1PageHit page;
    probeL1(0, *l1Page4K_, vaddr, idxShift, range.has_value(), page);
    if (at(ProvStruct::L1Tlb2M).enabled) {
        probeL1(1, *l1Page2M_, vaddr, vm::pageShift(vm::PageSize::Size2M),
                range.has_value(), page);
    }
    if (at(ProvStruct::L1Tlb1G).enabled) {
        probeL1(2, *l1Page1G_, vaddr, vm::pageShift(vm::PageSize::Size1G),
                range.has_value(), page);
    }
    if (!range && !page.hit)
        return false;

    ++stats_.l1Hits;
    const HitSource src = range ? HitSource::L1Range : page.source;
    ++stats_.hitsBySource[static_cast<unsigned>(src)];
    if (checker_) {
        if (range) {
            checker_->onRangeTranslation(vaddr, range->paddr(vaddr),
                                         hitSourceName(src));
        } else {
            checkPageHit(vaddr, page.entry, src);
        }
        if ((stats_.memOps & 63) == 0)
            auditWayMasks();
    }
    provEnd(hitSourceName(src), range ? 0 : page.entry.shift, true);
    return true; // L1 hits are free (parallel with the L1 data cache)
}

void
Mmu::access(Addr vaddr)
{
    ++stats_.memOps;
    if (EAT_PROV_ENABLED && prov_)
        prov_->beginTranslation(stats_.instructions, coreId_, asid_, vaddr);
    // TLB_PP's oracle predicts once: the prediction indexes the mixed
    // L1 and, on a miss, the mixed L2.
    const unsigned idxShift =
        cfg_.mixedTlbs ? vm::pageShift(predictPageSize(vaddr))
                       : vm::pageShift(vm::PageSize::Size4K);
    if (l1Stage(vaddr, idxShift) || l2Stage(vaddr, idxShift) ||
        l3Stage(vaddr))
        return;
    walkStage(vaddr);
}

bool
Mmu::l2Stage(Addr vaddr, unsigned idxShift)
{
    ++stats_.l1Misses;
    stats_.l1MissCycles += cfg_.l2HitLatency;
    if (lite_)
        lite_->onL1Miss();

    // The enabled L2 structures are searched in parallel. The L2 TLB
    // holds 4 KB entries only (Sandy Bridge, Table 1) — 2 MB
    // translations live solely in the L1-2MB TLB — except TLB_PP's
    // mixed L2.
    std::optional<vm::RangeTranslation> range;
    if (Structure &s = at(ProvStruct::L2Range); s.enabled) {
        range = l2Range_->lookup(vaddr, asid_);
        chargeRead(s, 0, range.has_value());
    }
    const auto page = l2Page_->lookupWithShift(vaddr, idxShift, asid_);
    chargeRead(at(ProvStruct::L2Tlb), 0, page.hit);

    if (range) {
        // L2-range hit: copy the range into the L1-range TLB, plus the
        // corresponding page-table entry into the L1-page TLBs (RMM).
        // The PTE is synthesized from the range translation at the
        // page size the page table uses for this address — the two
        // mappings are redundant by construction.
        ++stats_.l2Hits;
        ++stats_.hitsBySource[static_cast<unsigned>(HitSource::L2Range)];
        if (checker_) {
            checker_->onRangeTranslation(
                vaddr, range->paddr(vaddr),
                hitSourceName(HitSource::L2Range));
        }
        if (l1Range_)
            fill(at(ProvStruct::L1Range), 0, 0, *l1Range_, *range, asid_);
        auto t = pageTable_->translate(vaddr);
        if (!t)
            eat_panic("range translation without page mapping at ", vaddr);
        fillL1Page(tlb::makePageEntry(vaddr, t->pbase, t->size, asid_));
        provEnd(hitSourceName(HitSource::L2Range),
                vm::pageShift(t->size), false);
        return true;
    }
    if (page.hit) {
        ++stats_.l2Hits;
        ++stats_.hitsBySource[static_cast<unsigned>(HitSource::L2Page)];
        if (checker_)
            checkPageHit(vaddr, page.entry, HitSource::L2Page);
        fillL1Page(page.entry);
        provEnd(hitSourceName(HitSource::L2Page), page.entry.shift, false);
        return true;
    }
    ++stats_.l2Misses;
    return false;
}

bool
Mmu::l3Stage(Addr vaddr)
{
    // An L3 hit serves the translation at L3-probe cost and skips the
    // walk entirely (and, under RMM, the background range walk — the
    // tier answers before either walker is engaged).
    if (!l3Cache_ && !l3Dram_)
        return false;
    ++stats_.l3Probes;
    bool hit = false;
    tlb::TlbEntry entry{};
    if (l3Cache_) {
        // An L2 hit since the last probe ended the miss streak the
        // PtePromote policy watches.
        if (stats_.l2Hits != l2HitsAtL3Probe_)
            l3Cache_->noteL2Hit();
        l2HitsAtL3Probe_ = stats_.l2Hits;
        stats_.walkCycles += cfg_.l3Cache.probeLatency;
        const auto res = l3Cache_->lookup(vaddr, asid_);
        chargeRead(at(ProvStruct::L3Tlb), 0, res.hit);
        hit = res.hit;
        entry = res.entry;
    } else {
        const auto res = l3Dram_->probe(vaddr, asid_);
        // The SRAM tag cache is probed on every access; the DRAM array
        // only when the tags could not prove the translation absent.
        Structure &dram = at(ProvStruct::DramTlb);
        stats_.walkCycles += cfg_.l3Dram.tagLatency;
        chargeRead(dram, 0, res.tagCacheHit);
        if (res.tagCacheHit)
            ++stats_.dramTagHits;
        if (res.dramAccessed) {
            ++stats_.dramAccesses;
            stats_.walkCycles += cfg_.l3Dram.dramLatency;
            chargeRead(dram, 1, res.hit);
        }
        hit = res.hit;
        entry = res.entry;
    }
    if (!hit) {
        ++stats_.l3Misses;
        return false;
    }

    ++stats_.l3Hits;
    // Tier-served translations count under the walk bucket: the
    // frozen HitSource enum keeps digests stable, and the identities
    // "bySource sums to memOps" and "walk-bucket hits == l2Misses"
    // keep holding with the tier on.
    ++stats_.hitsBySource[static_cast<unsigned>(HitSource::PageWalk)];
    const std::string_view source = l3Cache_ ? "l3-tlb" : "dram-tlb";
    if (checker_) {
        checker_->onPageTranslation(vaddr, entry.paddr(vaddr), entry.size,
                                    source);
    }
    fillL1Page(entry);
    // The tier holds 4 KB entries, which the L2 TLB accepts in every
    // organization (mixed L2s accept all sizes).
    fill(at(ProvStruct::L2Tlb), 0, entry.shift, *l2Page_, entry);
    provEnd(source, entry.shift, false);
    return true;
}

void
Mmu::walkStage(Addr vaddr)
{
    stats_.walkCycles += cfg_.pageWalkLatency;
    ++stats_.hitsBySource[static_cast<unsigned>(HitSource::PageWalk)];

    // Under nested paging the walk is two-dimensional; its guest
    // dimension is charged below exactly like a flat walk, and the
    // host dimension is charged afterwards (zero in identity mode).
    vm::NestedWalkResult nested;
    if (nestedWalker_)
        nested = nestedWalker_->walk(vaddr, asid_);
    const auto walk =
        nestedWalker_ ? tlb::WalkResult{nested.translation, nested.guestCache}
                      : walker_.walk(vaddr);

    // All three paging-structure caches are probed in parallel.
    Structure &pde = at(ProvStruct::PwcPde);
    Structure &pdpte = at(ProvStruct::PwcPdpte);
    Structure &pml4 = at(ProvStruct::PwcPml4);
    chargeRead(pde, 0, walk.cache.hitPde);
    chargeRead(pdpte, 0, walk.cache.hitPdpte);
    chargeRead(pml4, 0, walk.cache.hitPml4);
    if (walk.cache.filledPde)
        chargeWrite(pde);
    if (walk.cache.filledPdpte)
        chargeWrite(pdpte);
    if (walk.cache.filledPml4)
        chargeWrite(pml4);

    stats_.walkMemRefs += walk.cache.memRefs;
    chargeWalkRefs(at(ProvStruct::WalkMem), walk.cache.memRefs,
                   tlb::MmuCache::leafLevel(walk.translation.size));
    if (nested.hostWalkCount > 0)
        chargeNestedWalk(nested);

    const auto entry = tlb::makePageEntry(
        vaddr, walk.translation.pbase, walk.translation.size, asid_);
    if (checker_)
        checkPageHit(vaddr, entry, HitSource::PageWalk);
    fillL1Page(entry);
    // The L2 TLB holds 4 KB entries only (Sandy Bridge), except for
    // TLB_PP's mixed L2.
    if (cfg_.mixedTlbs || entry.size == vm::PageSize::Size4K)
        fill(at(ProvStruct::L2Tlb), 0, entry.shift, *l2Page_, entry);
    fillL3(entry);

    if (rangeWalker_) {
        // The range-table walk happens in the background: dynamic
        // energy, zero cycles (paper §5).
        const auto rw = rangeWalker_->walk(vaddr);
        ++stats_.rangeWalks;
        stats_.rangeWalkMemRefs += rw.memRefs;
        chargeWalkRefs(at(ProvStruct::RangeWalkMem), rw.memRefs, 0);
        if (rw.range && l2Range_)
            fill(at(ProvStruct::L2Range), 0, 0, *l2Range_, *rw.range, asid_);
    }
    provEnd(hitSourceName(HitSource::PageWalk), entry.shift, false);
}

void
Mmu::fillL3(const tlb::TlbEntry &entry)
{
    // The tier holds 4 KB-granule translations only; huge-page walks
    // bypass it (their reach is not the binding constraint). The DRAM
    // TLB's fill writes its DRAM array.
    if (entry.size != vm::PageSize::Size4K)
        return;
    bool evicted = false;
    if (l3Cache_ && l3Cache_->admitOnWalk()) {
        evicted = fill(at(ProvStruct::L3Tlb), 0, entry.shift, *l3Cache_,
                       entry);
    } else if (l3Dram_) {
        evicted = fill(at(ProvStruct::DramTlb), 1, entry.shift, *l3Dram_,
                       entry);
    } else {
        return; // no tier, or the cache tier's policy declined
    }
    ++stats_.l3Fills;
    if (evicted)
        ++stats_.l3Evictions;
}

void
Mmu::switchContext(tlb::Asid asid, const vm::PageTable &pageTable,
                   const vm::RangeTable *rangeTable, bool flushTlbs)
{
    if (asid == asid_ && &pageTable == pageTable_)
        return; // same address space: nothing reloads
    ++stats_.contextSwitches;
    asid_ = asid;
    pageTable_ = &pageTable;
    rangeTable_ = rangeTable;
    walker_.setPageTable(pageTable);
    if (nestedWalker_)
        nestedWalker_->setPageTable(pageTable);
    if (rangeWalker_) {
        eat_assert(rangeTable != nullptr,
                   "context switch dropped the range table of a "
                   "range-TLB configuration");
        rangeWalker_->setRangeTable(*rangeTable);
    }
    // The paging-structure caches are untagged (as on x86 parts):
    // a CR3 reload flushes them in both modes. The host PWC survives —
    // EPT caches are keyed on guest-physical addresses, which a guest
    // CR3 reload does not revoke.
    mmuCache_.flush();
    if (flushTlbs)
        forEachCache(structs_, [](auto &cache) { cache.invalidateAll(); });
    if (checker_)
        checker_->setActiveAsid(asid);
}

unsigned
Mmu::shootdownInvalidate(Addr vbase, Addr vlimit, tlb::Asid asid,
                         bool initiator)
{
    unsigned n = 0;
    forEachCache(structs_, [&](auto &cache) {
        n += cache.invalidateRange(vbase, vlimit, asid);
    });
    // The paging-structure caches hold upper-level PTEs of the remapped
    // region; they are untagged, so the whole cache goes.
    mmuCache_.flush();
    // shootdownsReceived counts IPIs taken; under hardware coherence
    // the same architectural invalidation arrives as a filter message,
    // counted by receiveCoherenceInvalidation() on targeted cores only.
    if (!initiator && !cfg_.hwCoherence)
        ++stats_.shootdownsReceived;
    stats_.shootdownInvalidations += n;
    return n;
}

void
Mmu::chargeShootdown(unsigned remoteCores, unsigned entriesInvalidated)
{
    ++stats_.shootdownsInitiated;
    stats_.shootdownCycles +=
        cfg_.shootdownBaseCycles +
        cfg_.shootdownPerCoreCycles * remoteCores;
    const PicoJoules pj =
        cfg_.shootdownPerCorePj * static_cast<double>(remoteCores) +
        cfg_.shootdownPerEntryPj * static_cast<double>(entriesInvalidated);
    stats_.shootdownEnergyPj += pj;
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({stats_.instructions, 0, pj, obs::ProvKind::Shootdown,
                     obs::ProvStruct::Shootdown, coreId_, asid_, 0, false,
                     remoteCores, entriesInvalidated});
    }
}

void
Mmu::chargeCoherenceProbe(unsigned targetCores, unsigned entriesInvalidated,
                          std::uint64_t version, Addr vbase)
{
    ++stats_.cohProbes;
    stats_.cohTargetedCores += targetCores;
    stats_.cohCycles +=
        cfg_.cohProbeCycles + cfg_.cohPerCoreCycles * targetCores;
    const PicoJoules pj =
        cfg_.cohProbePj +
        cfg_.cohPerCorePj * static_cast<double>(targetCores) +
        cfg_.cohPerEntryPj * static_cast<double>(entriesInvalidated);
    stats_.cohEnergyPj += pj;
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({stats_.instructions, vbase, pj, obs::ProvKind::CohProbe,
                     obs::ProvStruct::Coherence, coreId_, asid_, 0, false,
                     targetCores, entriesInvalidated, version});
    }
}

void
Mmu::checkPageHit(Addr vaddr, const tlb::TlbEntry &entry, HitSource src)
{
    checker_->onPageTranslation(vaddr, entry.paddr(vaddr), entry.size,
                                hitSourceName(src));
}

void
Mmu::auditWayMasks()
{
    for (const auto &s : structs_) {
        if (const auto *tlb = s.page())
            checker_->auditWayMask(*tlb);
    }
}

MilliWatts
Mmu::leakagePower(bool gated) const
{
    MilliWatts total = 0.0;
    for (const auto id : kLeakOrder) {
        const Structure &s = at(id);
        if (!s.enabled)
            continue;
        total += s.coeffByLogWays[gated ? s.coeffIndex()
                                        : s.coeffByLogWays.size() - 1]
                     .leakage;
    }
    return total;
}

void
Mmu::refreshLeakage()
{
    leakGated_ = leakagePower(true);
    leakFull_ = leakagePower(false);
    for (InstrCount n = 0; n < kTickAddends; ++n) {
        const double ns = static_cast<double>(n) / cfg_.clockGhz;
        tickAddends_[n] = {leakGated_ * ns, leakFull_ * ns};
    }
}

void
Mmu::tickIntervals()
{
    const auto interval = cfg_.lite.intervalInstructions;
    while (instrTowardInterval_ >= interval) {
        if (lite_) {
            lite_->onIntervalEnd(interval);
            refreshLeakage(); // Lite may have resized
        }
        instrTowardInterval_ -= interval;
        // Emit after Lite's decision so the way-mask reflects it.
        if (telemetry_)
            emitIntervalRecord(interval);
    }
}

void
Mmu::registerMetrics(obs::MetricRegistry &registry,
                     const std::string &prefix) const
{
    // Every name below goes through @p name so one registry can hold
    // several cores ("core0.mmu.mem_ops", ...); the single-core prefix
    // is empty and the names are unchanged.
    auto name = [&prefix](const char *n) { return prefix + n; };

    // Datapath event counters.
    registry.addCounter(name("mmu.instructions"), &stats_.instructions);
    registry.addCounter(name("mmu.mem_ops"), &stats_.memOps);
    registry.addCounter(name("mmu.l1_hits"), &stats_.l1Hits);
    registry.addCounter(name("mmu.l1_misses"), &stats_.l1Misses);
    registry.addCounter(name("mmu.l2_hits"), &stats_.l2Hits);
    registry.addCounter(name("mmu.l2_misses"), &stats_.l2Misses);
    registry.addCounter(name("mmu.walk_mem_refs"), &stats_.walkMemRefs);
    registry.addCounter(name("mmu.range_walks"), &stats_.rangeWalks);
    registry.addCounter(name("mmu.range_walk_mem_refs"),
                        &stats_.rangeWalkMemRefs);
    if (nestedWalker_) {
        registry.addCounter(name("mmu.host_walks"), &stats_.hostWalks);
        registry.addCounter(name("mmu.host_walk_mem_refs"),
                            &stats_.hostWalkMemRefs);
    }
    if (cfg_.l3Mode != l3::L3Mode::None) {
        registry.addCounter(name("mmu.l3_probes"), &stats_.l3Probes);
        registry.addCounter(name("mmu.l3_hits"), &stats_.l3Hits);
        registry.addCounter(name("mmu.l3_misses"), &stats_.l3Misses);
        registry.addCounter(name("mmu.l3_fills"), &stats_.l3Fills);
        registry.addCounter(name("mmu.l3_evictions"), &stats_.l3Evictions);
    }
    if (cfg_.l3Mode == l3::L3Mode::Dram) {
        registry.addCounter(name("mmu.dram_tag_hits"),
                            &stats_.dramTagHits);
        registry.addCounter(name("mmu.dram_accesses"),
                            &stats_.dramAccesses);
    }
    registry.addCounter(name("mmu.l1_miss_cycles"), &stats_.l1MissCycles);
    registry.addCounter(name("mmu.walk_cycles"), &stats_.walkCycles);
    registry.addCounter(name("mmu.context_switches"),
                        &stats_.contextSwitches);
    registry.addCounter(name("mmu.shootdowns_initiated"),
                        &stats_.shootdownsInitiated);
    registry.addCounter(name("mmu.shootdowns_received"),
                        &stats_.shootdownsReceived);
    registry.addCounter(name("mmu.shootdown_invalidations"),
                        &stats_.shootdownInvalidations);
    registry.addCounter(name("mmu.shootdown_cycles"),
                        &stats_.shootdownCycles);
    registry.addCounter(name("mmu.coh_probes"), &stats_.cohProbes);
    registry.addCounter(name("mmu.coh_targeted_cores"),
                        &stats_.cohTargetedCores);
    registry.addCounter(name("mmu.coh_invalidations_received"),
                        &stats_.cohInvalidationsReceived);
    registry.addCounter(name("mmu.coh_cycles"), &stats_.cohCycles);

    static constexpr std::array<std::string_view,
                                static_cast<unsigned>(HitSource::Count)>
        kSourceNames{"l1_page4k", "l1_page2m", "l1_page1g", "l1_range",
                     "l2_page",   "l2_range",  "page_walk"};
    for (unsigned i = 0; i < kSourceNames.size(); ++i) {
        registry.addCounter(
            name("mmu.hits.") + std::string(kSourceNames[i]),
            &stats_.hitsBySource[i]);
    }

    registry.addHistogram(name("mmu.l1_way_lookups_4k"),
                          &stats_.l1WayLookups4K);
    if (at(ProvStruct::L1Tlb2M).built) {
        registry.addHistogram(name("mmu.l1_way_lookups_2m"),
                              &stats_.l1WayLookups2M);
    }

    // Energy totals.
    registry.addGauge(name("energy.dynamic_pj"),
                      [this] { return dynamicEnergyTotal(); });
    registry.addGauge(name("energy.leakage_mw"),
                      [this] { return leakagePower(true); });
    registry.addGauge(name("energy.static_gated_pj"),
                      [this] { return staticGatedPj_; });
    registry.addGauge(name("energy.static_full_pj"),
                      [this] { return staticFullPj_; });
    registry.addGauge(name("energy.shootdown_pj"),
                      [this] { return stats_.shootdownEnergyPj; });
    registry.addGauge(name("energy.coherence_pj"),
                      [this] { return stats_.cohEnergyPj; });

    // Per structure: its meter, plus hit/miss/fill counters for a page
    // or range TLB (accessor-backed closures).
    for (const auto &s : structs_) {
        if (!s.built)
            continue;
        const std::string energy = name("energy.") + std::string(s.metric);
        const energy::EnergyMeter *m = &s.meter;
        registry.addCounter(energy + ".reads", [m] { return m->reads(); });
        registry.addCounter(energy + ".writes",
                            [m] { return m->writes(); });
        registry.addGauge(energy + ".read_pj",
                          [m] { return m->readEnergy(); });
        registry.addGauge(energy + ".write_pj",
                          [m] { return m->writeEnergy(); });

        std::string counters = prefix + std::string(s.metric);
        counters[prefix.size() + s.metric.find('_')] = '.';
        if (const auto *t = s.page()) {
            registry.addCounter(counters + ".hits", [t] { return t->hits(); });
            registry.addCounter(counters + ".misses",
                                [t] { return t->misses(); });
            registry.addCounter(counters + ".fills",
                                [t] { return t->fills(); });
            registry.addCounter(counters + ".resizes",
                                [t] { return t->resizes(); });
            registry.addGauge(counters + ".active_ways", [t] {
                return static_cast<double>(t->activeWays());
            });
        } else if (const auto *r = std::get_if<tlb::RangeTlb *>(&s.cache)) {
            const tlb::RangeTlb *t = *r;
            registry.addCounter(counters + ".hits", [t] { return t->hits(); });
            registry.addCounter(counters + ".misses",
                                [t] { return t->misses(); });
            registry.addCounter(counters + ".fills",
                                [t] { return t->fills(); });
        }
    }

    if (lite_)
        lite_->registerMetrics(registry, prefix);
}

void
Mmu::setTelemetry(obs::TelemetrySink *sink)
{
    telemetry_ = sink;
}

void
Mmu::setTrace(obs::TraceWriter *trace)
{
    trace_ = trace;
    if (trace_)
        trace_->registerClock(coreId_, &stats_.instructions);
    if (lite_)
        lite_->setTrace(trace, coreId_);
}

void
Mmu::setInjectStats(const check::InjectStats *stats)
{
    injectStats_ = stats;
}

void
Mmu::setProvenance(obs::ProvenanceSink *sink)
{
    prov_ = obs::kProvenanceCompiledIn ? sink : nullptr;
    if (lite_) {
        // Lite's resize hook mirrors the ctor's monitored-TLB order.
        std::vector<obs::ProvStruct> ids;
        for (unsigned i = 0; i < kL1PageTlbs; ++i) {
            if (structs_[i].built)
                ids.push_back(structs_[i].id);
        }
        lite_->setProvenance(prov_, coreId_, &stats_.instructions,
                             std::move(ids));
    }
}

PicoJoules
Mmu::dynamicEnergyTotal() const
{
    // Summation order == ProvStruct enum order (reconciliation replays
    // this exact IEEE addition sequence); structures a run lacks or
    // never touched read 0.0, which leaves the sum bit-identical.
    PicoJoules total = 0.0;
    for (const auto &s : structs_)
        total += s.meter.total();
    return total;
}

void
Mmu::emitIntervalRecord(InstrCount intervalInstructions)
{
    obs::IntervalRecord rec;
    rec.core = coreId_;
    rec.interval = intervalIndex_++;
    rec.startInstr = rec.interval * intervalInstructions;
    rec.instructions = intervalInstructions;

    // Interval deltas. A tick retiring several intervals at once books
    // all its events into the first one it closes; the rest read zero.
    const MmuStats &last = lastStats_;
    rec.memOps = stats_.memOps - last.memOps;
    rec.l1Hits = stats_.l1Hits - last.l1Hits;
    rec.l1Misses = stats_.l1Misses - last.l1Misses;
    rec.l2Hits = stats_.l2Hits - last.l2Hits;
    rec.l2Misses = stats_.l2Misses - last.l2Misses;
    rec.hostWalkRefs = stats_.hostWalkMemRefs - last.hostWalkMemRefs;
    rec.l3Probes = stats_.l3Probes - last.l3Probes;
    rec.l3Hits = stats_.l3Hits - last.l3Hits;
    rec.missCycles = stats_.tlbMissCycles() - last.tlbMissCycles();
    const PicoJoules dynamicPj = dynamicEnergyTotal();
    rec.dynamicPj = dynamicPj - lastDynamicPj_;

    const double kilo = static_cast<double>(intervalInstructions) / 1000.0;
    rec.l1Mpki = kilo > 0.0 ? static_cast<double>(rec.l1Misses) / kilo : 0.0;
    rec.l2Mpki = kilo > 0.0 ? static_cast<double>(rec.l2Misses) / kilo : 0.0;
    rec.l1HitRatio =
        rec.memOps > 0 ? static_cast<double>(rec.l1Hits) /
                             static_cast<double>(rec.memOps)
                       : 0.0;
    const std::uint64_t l2Lookups = rec.l2Hits + rec.l2Misses;
    rec.l2HitRatio =
        l2Lookups > 0 ? static_cast<double>(rec.l2Hits) /
                            static_cast<double>(l2Lookups)
                      : 0.0;

    for (unsigned i = 0; i < kL1PageTlbs; ++i) {
        if (const auto *tlb = structs_[i].page())
            rec.wayMask.emplace_back(tlb->name(), tlb->activeWays());
    }

    if (checker_) {
        const std::uint64_t mismatches = checker_->stats().mismatches();
        rec.checkMismatches = mismatches - lastMismatches_;
        lastMismatches_ = mismatches;
    }
    if (injectStats_) {
        const std::uint64_t injected = injectStats_->injected();
        rec.faultsInjected = injected - lastInjected_;
        lastInjected_ = injected;
    }
    lastStats_ = stats_;
    lastDynamicPj_ = dynamicPj;

    // The interval marker carries the same delta telemetry writes, so
    // eatreport can reconcile the two streams row by row.
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({stats_.instructions, rec.interval, rec.dynamicPj,
                     obs::ProvKind::Interval, obs::ProvStruct::None,
                     coreId_, asid_, 0, false, 0, 0});
    }

    telemetry_->emit(rec);
}

energy::EnergyReport
Mmu::energyReport() const
{
    energy::EnergyReport report;
    // A structure's row appears only when its meter was touched, so
    // structures a run never used leave the report — hence the digest —
    // unchanged.
    for (const auto id : kReportOrder) {
        const Structure &s = at(id);
        const auto &m = s.meter;
        if (m.reads() == 0 && m.writes() == 0)
            continue;
        report.breakdown.*s.category += m.total();
        report.structs.push_back({std::string(s.name), m.reads(),
                                  m.writes(), m.readEnergy(),
                                  m.writeEnergy(), s.id});
    }

    // Leakage of the currently active configuration and the static
    // energy integrals (companion metrics; the headline results are
    // dynamic energy).
    report.leakagePower = leakagePower(true);
    report.staticEnergyGated = staticGatedPj_;
    report.staticEnergyFull = staticFullPj_;

    return report;
}

} // namespace eat::core
