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

/** Coefficients for every power-of-two downsizing of a page TLB. */
std::vector<energy::EnergyCoefficients>
resizableCoeffs(const energy::CactiLite &cacti, StructClass cls,
                const TlbGeom &geom)
{
    const unsigned sets = geom.entries / geom.ways;
    std::vector<energy::EnergyCoefficients> out(floorLog2(geom.ways) + 1);
    for (unsigned lw = 0; lw < out.size(); ++lw) {
        const unsigned ways = 1u << lw;
        out[lw] = cacti.estimate(cls, sets * ways, ways);
    }
    return out;
}

std::vector<energy::EnergyCoefficients>
fixedCoeff(const energy::CactiLite &cacti, StructClass cls, unsigned entries,
           unsigned ways)
{
    return {cacti.estimate(cls, entries, ways)};
}

} // namespace

unsigned
Mmu::logWaysOf(const tlb::SetAssocTlb &t)
{
    // The TLB maintains this value across resizes; recomputing the
    // log on every energy charge was measurable on the access path.
    return t.logActiveWays();
}

Mmu::Mmu(const MmuConfig &config, const vm::PageTable &pageTable,
         const vm::RangeTable *rangeTable)
    : cfg_(config),
      pageTable_(&pageTable),
      rangeTable_(rangeTable),
      mmuCache_(config.mmuCache),
      walker_(pageTable, mmuCache_)
{
    eat_check_fatal(cfg_.validate());

    // --- build the structures ---
    if (cfg_.combinedFullyAssocL1) {
        // §4.4: one fully associative L1 holds every page size; a
        // fully associative structure matches mixed sizes natively.
        l1Page4K_ = std::make_unique<tlb::SetAssocTlb>(
            "L1-combined TLB", cfg_.combinedL1Entries,
            cfg_.combinedL1Entries, 12);
    } else {
        l1Page4K_ = std::make_unique<tlb::SetAssocTlb>(
            cfg_.mixedTlbs ? "L1-mixed TLB" : "L1-4KB TLB",
            cfg_.l1Tlb4K.entries, cfg_.l1Tlb4K.ways, 12);
    }
    l2Page_ = std::make_unique<tlb::SetAssocTlb>(
        cfg_.mixedTlbs ? "L2-mixed TLB" : "L2-4KB TLB", cfg_.l2Tlb.entries,
        cfg_.l2Tlb.ways, 12);

    if (!cfg_.mixedTlbs && !cfg_.combinedFullyAssocL1) {
        l1Page2M_ = std::make_unique<tlb::SetAssocTlb>(
            "L1-2MB TLB", cfg_.l1Tlb2M.entries, cfg_.l1Tlb2M.ways, 21);
        l1Page1G_ = std::make_unique<tlb::FullyAssocTlb>(
            "L1-1GB TLB", cfg_.l1Tlb1GEntries, 30);
    }

    if (cfg_.hasL1Range)
        l1Range_ = std::make_unique<tlb::RangeTlb>("L1-range TLB",
                                                   cfg_.l1RangeEntries);
    if (cfg_.hasL2Range)
        l2Range_ = std::make_unique<tlb::RangeTlb>("L2-range TLB",
                                                   cfg_.l2RangeEntries);
    if (cfg_.hasL1Range || cfg_.hasL2Range) {
        eat_assert(rangeTable_ != nullptr,
                   "range TLBs require a range table");
        rangeWalker_ = std::make_unique<tlb::RangeTableWalker>(*rangeTable_);
    }

    if (cfg_.liteEnabled) {
        std::vector<tlb::SetAssocTlb *> monitored{l1Page4K_.get()};
        if (l1Page2M_)
            monitored.push_back(l1Page2M_.get());
        if (l1Page1G_)
            monitored.push_back(l1Page1G_.get());
        lite_ = std::make_unique<lite::LiteController>(cfg_.lite,
                                                       std::move(monitored));
    }

    // --- energy coefficients ---
    if (cfg_.combinedFullyAssocL1) {
        m4K_.coeffByLogWays = resizableCoeffs(
            cacti_, StructClass::L1TlbMixedFA,
            TlbGeom{cfg_.combinedL1Entries, cfg_.combinedL1Entries});
    } else {
        m4K_.coeffByLogWays =
            resizableCoeffs(cacti_, StructClass::L1Tlb4K, cfg_.l1Tlb4K);
    }
    mL2_.coeffByLogWays =
        fixedCoeff(cacti_, StructClass::L2Tlb4K, cfg_.l2Tlb.entries,
                   cfg_.l2Tlb.ways);
    if (l1Page2M_) {
        m2M_.coeffByLogWays =
            resizableCoeffs(cacti_, StructClass::L1Tlb2M, cfg_.l1Tlb2M);
        m1G_.coeffByLogWays = resizableCoeffs(
            cacti_, StructClass::L1Tlb1G,
            TlbGeom{cfg_.l1Tlb1GEntries, cfg_.l1Tlb1GEntries});
    }
    if (l1Range_) {
        mL1Range_.coeffByLogWays = fixedCoeff(
            cacti_, StructClass::L1RangeTlb, cfg_.l1RangeEntries, 0);
    }
    if (l2Range_) {
        mL2Range_.coeffByLogWays = fixedCoeff(
            cacti_, StructClass::L2RangeTlb, cfg_.l2RangeEntries, 0);
    }
    mPde_.coeffByLogWays =
        fixedCoeff(cacti_, StructClass::MmuPde, cfg_.mmuCache.pdeEntries,
                   cfg_.mmuCache.pdeWays);
    mPdpte_.coeffByLogWays = fixedCoeff(
        cacti_, StructClass::MmuPdpte, cfg_.mmuCache.pdpteEntries, 0);
    mPml4_.coeffByLogWays =
        fixedCoeff(cacti_, StructClass::MmuPml4, cfg_.mmuCache.pml4Entries, 0);

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
        mHostPwc_.coeffByLogWays = fixedCoeff(
            cacti_, StructClass::MmuPde, cfg_.hostPwc.pdeEntries,
            cfg_.hostPwc.pdeWays);
    }

    // L3 translation tier: at most one substrate behind the L2 TLBs.
    // Both meters reuse the standard charge paths; the coefficient
    // index selects the stage (dram: 0 = SRAM tag cache, 1 = DRAM
    // array), so provenance reconciles with no new machinery.
    if (cfg_.l3Mode == l3::L3Mode::Cache) {
        l3Cache_ = std::make_unique<l3::CacheTlb>(cfg_.l3Cache, cacti_);
        mL3_.coeffByLogWays = {l3Cache_->coefficients()};
    } else if (cfg_.l3Mode == l3::L3Mode::Dram) {
        l3Dram_ = std::make_unique<l3::DramTlb>(cfg_.l3Dram, cacti_);
        mDram_.coeffByLogWays = {l3Dram_->tagCoefficients(),
                                 l3Dram_->dramCoefficients()};
    }

    // Page-walk references: a blend of L1 and L2 data-cache reads
    // controlled by the Figure-3 locality knob.
    const auto l1c = cacti_.estimate(StructClass::L1Cache, 512, 8);
    const double h = cfg_.walkL1CacheHitRatio;
    eat_assert(h >= 0.0 && h <= 1.0, "walkL1CacheHitRatio out of [0,1]");
    walkRefEnergy_ = h * l1c.read + (1.0 - h) * cacti_.l2CacheReadEnergy();

    stats_.l1WayLookups4K.ensureBuckets(floorLog2(cfg_.l1Tlb4K.ways) + 1);
    if (l1Page2M_)
        stats_.l1WayLookups2M.ensureBuckets(floorLog2(cfg_.l1Tlb2M.ways) + 1);

    // Provenance identities (must match the dynamicEnergyTotal() order
    // documented on obs::ProvStruct).
    m4K_.id = obs::ProvStruct::L1Tlb4K;
    m2M_.id = obs::ProvStruct::L1Tlb2M;
    m1G_.id = obs::ProvStruct::L1Tlb1G;
    mL2_.id = obs::ProvStruct::L2Tlb;
    mL1Range_.id = obs::ProvStruct::L1Range;
    mL2Range_.id = obs::ProvStruct::L2Range;
    mPde_.id = obs::ProvStruct::PwcPde;
    mPdpte_.id = obs::ProvStruct::PwcPdpte;
    mPml4_.id = obs::ProvStruct::PwcPml4;
    mHostPwc_.id = obs::ProvStruct::HostPwc;
    mL3_.id = obs::ProvStruct::L3Tlb;
    mDram_.id = obs::ProvStruct::DramTlb;
}

void
Mmu::chargeRead(Metered &m, unsigned logWays, bool hit)
{
    eat_assert(logWays < m.coeffByLogWays.size(), "bad coefficient index");
    const PicoJoules pj = m.coeffByLogWays[logWays].read;
    m.meter.chargeRead(pj);
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({stats_.instructions, 0, pj, obs::ProvKind::Probe,
                     m.id, coreId_, asid_, 0, hit, 1u << logWays, 0});
    }
}

void
Mmu::chargeWrite(Metered &m, unsigned logWays, unsigned psShift)
{
    eat_assert(logWays < m.coeffByLogWays.size(), "bad coefficient index");
    const PicoJoules pj = m.coeffByLogWays[logWays].write;
    m.meter.chargeWrite(pj);
    if (EAT_PROV_ENABLED && prov_) {
        prov_->emit({stats_.instructions, 0, pj, obs::ProvKind::Fill, m.id,
                     coreId_, asid_, static_cast<std::uint8_t>(psShift),
                     false, 1u << logWays, 0});
    }
}

void
Mmu::chargeWalkMemory(unsigned refs, bool rangeWalk, unsigned leafLevel)
{
    auto &meter = rangeWalk ? rangeWalkMemMeter_ : walkMemMeter_;
    // One event per reference, not refs * energy: repeated addition of
    // a double is not the same as multiplication, and the provenance
    // totals must stay bit-identical to the meter.
    for (unsigned i = 0; i < refs; ++i) {
        meter.chargeRead(walkRefEnergy_);
        if (EAT_PROV_ENABLED && prov_) {
            // The walk fetches top-down; reference i touches level
            // leafLevel + refs - 1 - i (range walks report level 0).
            const unsigned level =
                rangeWalk ? 0 : leafLevel + refs - 1 - i;
            prov_->emit({stats_.instructions, 0, walkRefEnergy_,
                         obs::ProvKind::WalkRef,
                         rangeWalk ? obs::ProvStruct::RangeWalkMem
                                   : obs::ProvStruct::WalkMem,
                         coreId_, asid_, 0, false, level, 0});
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
    for (unsigned w = 0; w < walk.hostWalkCount; ++w) {
        const auto &host = walk.hostWalks[w];
        // One lumped host-PWC probe per host walk (reads == hostWalks,
        // the accounting oracle's anchor) plus one write per entry the
        // walk installed.
        chargeRead(mHostPwc_, 0, host.pwcHit);
        for (unsigned f = 0; f < host.pwcFills; ++f)
            chargeWrite(mHostPwc_);
        // One event per host-table reference; repeated addition keeps
        // the provenance totals bit-identical to the meter.
        const unsigned leaf =
            tlb::MmuCache::leafLevel(hostTable_->pageSize());
        for (unsigned i = 0; i < host.memRefs; ++i) {
            hostWalkMemMeter_.chargeRead(walkRefEnergy_);
            if (EAT_PROV_ENABLED && prov_) {
                const unsigned level = leaf + host.memRefs - 1 - i;
                prov_->emit({stats_.instructions, 0, walkRefEnergy_,
                             obs::ProvKind::WalkRef,
                             obs::ProvStruct::HostWalkMem, coreId_, asid_,
                             0, false, level, 0});
            }
        }
    }
}

void
Mmu::provEvict(const Metered &m, bool evicted)
{
    if (EAT_PROV_ENABLED && prov_ && evicted) {
        prov_->emit({stats_.instructions, 0, 0.0, obs::ProvKind::Evict,
                     m.id, coreId_, asid_, 0, false, 0, 0});
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
    if (cfg_.mixedTlbs || cfg_.combinedFullyAssocL1) {
        chargeWrite(m4K_, logWaysOf(*l1Page4K_), entry.shift);
        provEvict(m4K_, l1Page4K_->fill(entry));
        return;
    }
    switch (entry.size) {
      case vm::PageSize::Size4K:
        chargeWrite(m4K_, logWaysOf(*l1Page4K_), entry.shift);
        provEvict(m4K_, l1Page4K_->fill(entry));
        break;
      case vm::PageSize::Size2M:
        if (!enabled2M_) { // naive static mask lifts on first 2 MB fill
            enabled2M_ = true;
            leakCache_.valid = false;
        }
        chargeWrite(m2M_, logWaysOf(*l1Page2M_), entry.shift);
        provEvict(m2M_, l1Page2M_->fill(entry));
        break;
      case vm::PageSize::Size1G:
        if (!enabled1G_) {
            enabled1G_ = true;
            leakCache_.valid = false;
        }
        chargeWrite(m1G_, logWaysOf(*l1Page1G_), entry.shift);
        provEvict(m1G_, l1Page1G_->fill(entry));
        break;
    }
}

void
Mmu::access(Addr vaddr)
{
    ++stats_.memOps;
    if (EAT_PROV_ENABLED && prov_)
        prov_->beginTranslation(stats_.instructions, coreId_, asid_, vaddr);

    // ------------------------------------------------------------------
    // L1: all enabled structures searched in parallel.
    // ------------------------------------------------------------------
    // Lookups run before their energy charge throughout: the charged
    // coefficient never depends on the outcome, and the provenance
    // probe event wants the hit flag.
    bool rangeHit = false;
    std::optional<vm::RangeTranslation> l1r;
    if (l1Range_ && enabledL1Range_) {
        l1r = l1Range_->lookup(vaddr, asid_);
        chargeRead(mL1Range_, 0, l1r.has_value());
        if (l1r)
            rangeHit = true;
    }

    bool pageHit = false;
    HitSource pageSource = HitSource::L1Page4K;
    tlb::TlbEntry hitEntry{};
    vm::PageSize mixedPredicted = vm::PageSize::Size4K;

    if (cfg_.mixedTlbs) {
        // The oracle's prediction also indexes the mixed L2 on a miss;
        // predicting once keeps the radix walk off the miss path.
        mixedPredicted = predictPageSize(vaddr);
        const unsigned lw4K = logWaysOf(*l1Page4K_);
        auto res = l1Page4K_->lookupWithShift(
            vaddr, vm::pageShift(mixedPredicted), asid_);
        chargeRead(m4K_, lw4K, res.hit);
        stats_.l1WayLookups4K.record(lw4K);
        if (res.hit) {
            pageHit = true;
            pageSource = HitSource::L1Page4K;
            hitEntry = res.entry;
        }
    } else if (cfg_.combinedFullyAssocL1) {
        // One fully associative lookup serves every page size; Lite
        // clusters its LRU distances as pseudo-ways (§4.4).
        const unsigned lw4K = logWaysOf(*l1Page4K_);
        auto res = l1Page4K_->lookup(vaddr, asid_);
        chargeRead(m4K_, lw4K, res.hit);
        stats_.l1WayLookups4K.record(lw4K);
        if (res.hit) {
            pageHit = true;
            pageSource = HitSource::L1Page4K;
            hitEntry = res.entry;
            if (lite_)
                lite_->onTlbHit(0, res.lruDistance, true);
        }
    } else if (rangeHit) {
        // The range translation provides this lookup; the parallel
        // page-TLB probes still burn lookup energy, but the entries are
        // not *used*, so their recency state is not refreshed (and Lite
        // records no utility). Without this, range-covered entries
        // would pin themselves at the MRU end forever and mask the
        // utility signal of the traffic only the page TLBs serve.
        const unsigned lw4K = logWaysOf(*l1Page4K_);
        chargeRead(m4K_, lw4K);
        stats_.l1WayLookups4K.record(lw4K);
        if (enabled2M_) {
            const unsigned lw2M = logWaysOf(*l1Page2M_);
            chargeRead(m2M_, lw2M);
            stats_.l1WayLookups2M.record(lw2M);
        }
        if (enabled1G_)
            chargeRead(m1G_, logWaysOf(*l1Page1G_));
    } else {
        // L1-4KB TLB: always enabled.
        const unsigned lw4K = logWaysOf(*l1Page4K_);
        auto res4k = l1Page4K_->lookup(vaddr, asid_);
        chargeRead(m4K_, lw4K, res4k.hit);
        stats_.l1WayLookups4K.record(lw4K);
        if (res4k.hit) {
            pageHit = true;
            pageSource = HitSource::L1Page4K;
            hitEntry = res4k.entry;
            if (lite_)
                lite_->onTlbHit(0, res4k.lruDistance, true);
        }

        if (enabled2M_) {
            const unsigned lw2M = logWaysOf(*l1Page2M_);
            auto res2m = l1Page2M_->lookup(vaddr, asid_);
            chargeRead(m2M_, lw2M, res2m.hit);
            stats_.l1WayLookups2M.record(lw2M);
            if (res2m.hit) {
                eat_assert(!pageHit, "address mapped by two page sizes");
                pageHit = true;
                pageSource = HitSource::L1Page2M;
                hitEntry = res2m.entry;
                if (lite_)
                    lite_->onTlbHit(1, res2m.lruDistance, true);
            }
        }
        if (enabled1G_) {
            auto res1g = l1Page1G_->lookup(vaddr, asid_);
            chargeRead(m1G_, logWaysOf(*l1Page1G_), res1g.hit);
            if (res1g.hit) {
                eat_assert(!pageHit, "address mapped by two page sizes");
                pageHit = true;
                pageSource = HitSource::L1Page1G;
                hitEntry = res1g.entry;
                if (lite_)
                    lite_->onTlbHit(2, res1g.lruDistance, true);
            }
        }
    }

    if (rangeHit || pageHit) {
        ++stats_.l1Hits;
        const HitSource src = rangeHit ? HitSource::L1Range : pageSource;
        ++stats_.hitsBySource[static_cast<unsigned>(src)];
        if (checker_) {
            if (rangeHit) {
                checker_->onRangeTranslation(vaddr, l1r->paddr(vaddr),
                                             hitSourceName(src));
            } else {
                checkPageHit(vaddr, hitEntry, src);
            }
            if ((stats_.memOps & 63) == 0)
                auditWayMasks();
        }
        provEnd(hitSourceName(src), rangeHit ? 0 : hitEntry.shift, true);
        return; // L1 hits are free (parallel with the L1 data cache).
    }

    // ------------------------------------------------------------------
    // L1 miss: the enabled L2 structures are searched in parallel.
    // ------------------------------------------------------------------
    ++stats_.l1Misses;
    stats_.l1MissCycles += cfg_.l2HitLatency;
    if (lite_)
        lite_->onL1Miss();

    std::optional<vm::RangeTranslation> l2r;
    if (l2Range_ && enabledL2Range_) {
        l2r = l2Range_->lookup(vaddr, asid_);
        chargeRead(mL2Range_, 0, l2r.has_value());
    }

    tlb::TlbLookupResult l2res;
    if (cfg_.mixedTlbs) {
        l2res = l2Page_->lookupWithShift(
            vaddr, vm::pageShift(mixedPredicted), asid_);
    } else {
        // The L2 TLB holds 4 KB entries only (Sandy Bridge, Table 1);
        // 2 MB translations live solely in the L1-2MB TLB.
        l2res = l2Page_->lookup(vaddr, asid_);
    }
    chargeRead(mL2_, 0, l2res.hit);

    if (l2r) {
        // L2-range hit: copy the range into the L1-range TLB, plus the
        // corresponding page-table entry into the L1-page TLBs (RMM).
        // The PTE is synthesized from the range translation at the
        // page size the page table uses for this address — the two
        // mappings are redundant by construction.
        ++stats_.l2Hits;
        ++stats_.hitsBySource[static_cast<unsigned>(HitSource::L2Range)];
        if (l3Cache_)
            l3Cache_->noteL2Hit();
        if (checker_) {
            checker_->onRangeTranslation(
                vaddr, l2r->paddr(vaddr),
                hitSourceName(HitSource::L2Range));
        }
        if (l1Range_) {
            if (!enabledL1Range_) {
                enabledL1Range_ = true;
                leakCache_.valid = false;
            }
            chargeWrite(mL1Range_);
            provEvict(mL1Range_, l1Range_->fill(*l2r, asid_));
        }
        auto t = pageTable_->translate(vaddr);
        if (!t)
            eat_panic("range translation without page mapping at ", vaddr);
        fillL1Page(tlb::makePageEntry(vaddr, t->pbase, t->size, asid_));
        provEnd(hitSourceName(HitSource::L2Range),
                vm::pageShift(t->size), false);
        return;
    }
    if (l2res.hit) {
        ++stats_.l2Hits;
        ++stats_.hitsBySource[static_cast<unsigned>(HitSource::L2Page)];
        if (l3Cache_)
            l3Cache_->noteL2Hit();
        if (checker_)
            checkPageHit(vaddr, l2res.entry, HitSource::L2Page);
        fillL1Page(l2res.entry);
        provEnd(hitSourceName(HitSource::L2Page), l2res.entry.shift,
                false);
        return;
    }

    // ------------------------------------------------------------------
    // L2 miss: L3 tier (when configured), then the page walk (plus
    // background range-table walk under RMM).
    // ------------------------------------------------------------------
    ++stats_.l2Misses;

    // An L3 hit serves the translation at L3-probe cost and skips the
    // walk entirely (and, under RMM, the background range walk — the
    // tier answers before either walker is engaged).
    if ((l3Cache_ || l3Dram_) && probeL3(vaddr))
        return;

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
    chargeRead(mPde_, 0, walk.cache.hitPde);
    chargeRead(mPdpte_, 0, walk.cache.hitPdpte);
    chargeRead(mPml4_, 0, walk.cache.hitPml4);
    if (walk.cache.filledPde)
        chargeWrite(mPde_);
    if (walk.cache.filledPdpte)
        chargeWrite(mPdpte_);
    if (walk.cache.filledPml4)
        chargeWrite(mPml4_);

    stats_.walkMemRefs += walk.cache.memRefs;
    chargeWalkMemory(walk.cache.memRefs, false,
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
    if (cfg_.mixedTlbs || entry.size == vm::PageSize::Size4K) {
        chargeWrite(mL2_, 0, entry.shift);
        provEvict(mL2_, l2Page_->fill(entry));
    }
    if (l3Cache_ || l3Dram_)
        fillL3(entry);

    if (rangeWalker_) {
        // The range-table walk happens in the background: dynamic
        // energy, zero cycles (paper §5).
        const auto rw = rangeWalker_->walk(vaddr);
        ++stats_.rangeWalks;
        stats_.rangeWalkMemRefs += rw.memRefs;
        chargeWalkMemory(rw.memRefs, true);
        if (rw.range && l2Range_) {
            if (!enabledL2Range_) {
                enabledL2Range_ = true;
                leakCache_.valid = false;
            }
            chargeWrite(mL2Range_);
            provEvict(mL2Range_, l2Range_->fill(*rw.range, asid_));
        }
    }
    provEnd(hitSourceName(HitSource::PageWalk), entry.shift, false);
}

bool
Mmu::probeL3(Addr vaddr)
{
    ++stats_.l3Probes;
    bool hit = false;
    tlb::TlbEntry entry{};
    if (l3Cache_) {
        stats_.walkCycles += cfg_.l3Cache.probeLatency;
        const auto res = l3Cache_->lookup(vaddr, asid_);
        chargeRead(mL3_, 0, res.hit);
        hit = res.hit;
        entry = res.entry;
    } else {
        const auto res = l3Dram_->probe(vaddr, asid_);
        // The SRAM tag cache is probed on every access; the DRAM array
        // only when the tags could not prove the translation absent.
        stats_.walkCycles += cfg_.l3Dram.tagLatency;
        chargeRead(mDram_, 0, res.tagCacheHit);
        if (res.tagCacheHit)
            ++stats_.dramTagHits;
        if (res.dramAccessed) {
            ++stats_.dramAccesses;
            stats_.walkCycles += cfg_.l3Dram.dramLatency;
            chargeRead(mDram_, 1, res.hit);
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
    chargeWrite(mL2_, 0, entry.shift);
    provEvict(mL2_, l2Page_->fill(entry));
    provEnd(source, entry.shift, false);
    return true;
}

void
Mmu::fillL3(const tlb::TlbEntry &entry)
{
    // The tier holds 4 KB-granule translations only; huge-page walks
    // bypass it (their reach is not the binding constraint).
    if (entry.size != vm::PageSize::Size4K)
        return;
    if (l3Cache_) {
        if (!l3Cache_->admitOnWalk())
            return;
        chargeWrite(mL3_, 0, entry.shift);
        const bool evicted = l3Cache_->fill(entry);
        provEvict(mL3_, evicted);
        ++stats_.l3Fills;
        if (evicted)
            ++stats_.l3Evictions;
    } else {
        chargeWrite(mDram_, 1, entry.shift);
        const bool evicted = l3Dram_->fill(entry);
        provEvict(mDram_, evicted);
        ++stats_.l3Fills;
        if (evicted)
            ++stats_.l3Evictions;
    }
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
    if (flushTlbs) {
        l1Page4K_->invalidateAll();
        if (l1Page2M_)
            l1Page2M_->invalidateAll();
        if (l1Page1G_)
            l1Page1G_->invalidateAll();
        l2Page_->invalidateAll();
        if (l1Range_)
            l1Range_->invalidateAll();
        if (l2Range_)
            l2Range_->invalidateAll();
        if (l3Cache_)
            l3Cache_->invalidateAll();
        if (l3Dram_)
            l3Dram_->invalidateAll();
    }
    if (checker_)
        checker_->setActiveAsid(asid);
}

unsigned
Mmu::shootdownInvalidate(Addr vbase, Addr vlimit, tlb::Asid asid,
                         bool initiator)
{
    unsigned n = l1Page4K_->invalidateRange(vbase, vlimit, asid);
    if (l1Page2M_)
        n += l1Page2M_->invalidateRange(vbase, vlimit, asid);
    if (l1Page1G_)
        n += l1Page1G_->invalidateRange(vbase, vlimit, asid);
    n += l2Page_->invalidateRange(vbase, vlimit, asid);
    if (l1Range_)
        n += l1Range_->invalidateRange(vbase, vlimit, asid);
    if (l2Range_)
        n += l2Range_->invalidateRange(vbase, vlimit, asid);
    if (l3Cache_)
        n += l3Cache_->invalidateRange(vbase, vlimit, asid);
    if (l3Dram_)
        n += l3Dram_->invalidateRange(vbase, vlimit, asid);
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
    checker_->auditWayMask(*l1Page4K_);
    if (l1Page2M_)
        checker_->auditWayMask(*l1Page2M_);
    if (l1Page1G_)
        checker_->auditWayMask(*l1Page1G_);
    checker_->auditWayMask(*l2Page_);
}

MilliWatts
Mmu::leakagePower(bool gated) const
{
    auto leak = [gated](const Metered &m, unsigned logWays) {
        const auto idx =
            gated ? logWays
                  : static_cast<unsigned>(m.coeffByLogWays.size() - 1);
        return idx < m.coeffByLogWays.size()
                   ? m.coeffByLogWays[idx].leakage
                   : 0.0;
    };
    MilliWatts total = leak(m4K_, logWaysOf(*l1Page4K_)) + leak(mL2_, 0) +
                       leak(mPde_, 0) + leak(mPdpte_, 0) +
                       leak(mPml4_, 0);
    if (l1Page2M_ && enabled2M_)
        total += leak(m2M_, logWaysOf(*l1Page2M_));
    if (l1Page1G_ && enabled1G_)
        total += leak(m1G_, logWaysOf(*l1Page1G_));
    if (l1Range_ && enabledL1Range_)
        total += leak(mL1Range_, 0);
    if (l2Range_ && enabledL2Range_)
        total += leak(mL2Range_, 0);
    // L3 tier leakage is constant while configured (reserved-share
    // model for the cache substrate, SRAM tag cache for DRAM), so the
    // leakage memo's key needs no new inputs.
    if (l3Cache_)
        total += leak(mL3_, 0);
    if (l3Dram_)
        total += leak(mDram_, 0);
    return total;
}

void
Mmu::tickSlow(InstrCount n)
{
    stats_.instructions += n;

    // Static energy (paper §6.2): with a base CPI of 1, n instructions
    // take n / f nanoseconds, and pJ = mW * ns. The leakage powers are
    // memoized on their only inputs (way masks and enable masks); the
    // mutation sites clear leakCache_.valid, and the recompute below
    // doubles as a cross-check when only a no-op restamp happened. The
    // cached doubles are exactly leakagePower()'s returns, so the
    // integrals are unchanged.
    const unsigned lw4K = logWaysOf(*l1Page4K_);
    const unsigned lw2M = l1Page2M_ ? logWaysOf(*l1Page2M_) : 0;
    const unsigned lw1G = l1Page1G_ ? logWaysOf(*l1Page1G_) : 0;
    const std::uint8_t enabled = static_cast<std::uint8_t>(
        (enabled2M_ ? 1 : 0) | (enabled1G_ ? 2 : 0) |
        (enabledL1Range_ ? 4 : 0) | (enabledL2Range_ ? 8 : 0));
    if (!leakCache_.valid || leakCache_.lw4K != lw4K ||
        leakCache_.lw2M != lw2M || leakCache_.lw1G != lw1G ||
        leakCache_.enabled != enabled) {
        leakCache_ = {true,    lw4K, lw2M, lw1G, enabled,
                      leakagePower(true), leakagePower(false)};
        tickDeltas_ = {};
    }
    if (n < kTickDeltaSlots) {
        TickDelta &d = tickDeltas_[n];
        if (!d.valid) {
            const double ns = static_cast<double>(n) / cfg_.clockGhz;
            d = {true, leakCache_.gated * ns, leakCache_.full * ns};
        }
        staticGatedPj_ += d.gatedPj;
        staticFullPj_ += d.fullPj;
    } else {
        const double ns = static_cast<double>(n) / cfg_.clockGhz;
        staticGatedPj_ += leakCache_.gated * ns;
        staticFullPj_ += leakCache_.full * ns;
    }

    // The interval clock drives Lite decisions and telemetry records;
    // it runs only when at least one consumer is attached.
    if (!lite_ && !telemetry_)
        return;
    instrTowardInterval_ += n;
    tickIntervals();
}

void
Mmu::tickIntervals()
{
    const auto interval = cfg_.lite.intervalInstructions;
    while (instrTowardInterval_ >= interval) {
        if (lite_) {
            lite_->onIntervalEnd(interval);
            // Lite may have resized: the leakage coefficients (and the
            // per-gap deltas derived from them) must be recomputed.
            leakCache_.valid = false;
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
    if (l3Cache_ || l3Dram_) {
        registry.addCounter(name("mmu.l3_probes"), &stats_.l3Probes);
        registry.addCounter(name("mmu.l3_hits"), &stats_.l3Hits);
        registry.addCounter(name("mmu.l3_misses"), &stats_.l3Misses);
        registry.addCounter(name("mmu.l3_fills"), &stats_.l3Fills);
        registry.addCounter(name("mmu.l3_evictions"), &stats_.l3Evictions);
    }
    if (l3Dram_) {
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
    if (l1Page2M_) {
        registry.addHistogram(name("mmu.l1_way_lookups_2m"),
                              &stats_.l1WayLookups2M);
    }

    // Per-structure hit/miss/fill counters (accessor-backed closures).
    auto addPageTlb = [&registry](std::string prefix,
                                  const tlb::SetAssocTlb *t) {
        registry.addCounter(prefix + ".hits", [t] { return t->hits(); });
        registry.addCounter(prefix + ".misses",
                            [t] { return t->misses(); });
        registry.addCounter(prefix + ".fills", [t] { return t->fills(); });
        registry.addCounter(prefix + ".resizes",
                            [t] { return t->resizes(); });
        registry.addGauge(prefix + ".active_ways", [t] {
            return static_cast<double>(t->activeWays());
        });
    };
    auto addRangeTlb = [&registry](std::string prefix,
                                   const tlb::RangeTlb *t) {
        registry.addCounter(prefix + ".hits", [t] { return t->hits(); });
        registry.addCounter(prefix + ".misses",
                            [t] { return t->misses(); });
        registry.addCounter(prefix + ".fills", [t] { return t->fills(); });
    };

    addPageTlb(name("l1.tlb4k"), l1Page4K_.get());
    if (l1Page2M_)
        addPageTlb(name("l1.tlb2m"), l1Page2M_.get());
    if (l1Page1G_)
        addPageTlb(name("l1.tlb1g"), l1Page1G_.get());
    addPageTlb(name("l2.tlb"), l2Page_.get());
    if (l1Range_)
        addRangeTlb(name("l1.range"), l1Range_.get());
    if (l2Range_)
        addRangeTlb(name("l2.range"), l2Range_.get());

    // Energy: totals plus per-structure meters.
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

    auto addMeter = [&registry](std::string prefix,
                                const energy::EnergyMeter *m) {
        registry.addCounter(prefix + ".reads", [m] { return m->reads(); });
        registry.addCounter(prefix + ".writes",
                            [m] { return m->writes(); });
        registry.addGauge(prefix + ".read_pj",
                          [m] { return m->readEnergy(); });
        registry.addGauge(prefix + ".write_pj",
                          [m] { return m->writeEnergy(); });
    };
    addMeter(name("energy.l1_tlb4k"), &m4K_.meter);
    if (l1Page2M_) {
        addMeter(name("energy.l1_tlb2m"), &m2M_.meter);
        addMeter(name("energy.l1_tlb1g"), &m1G_.meter);
    }
    addMeter(name("energy.l2_tlb"), &mL2_.meter);
    if (l1Range_)
        addMeter(name("energy.l1_range"), &mL1Range_.meter);
    if (l2Range_)
        addMeter(name("energy.l2_range"), &mL2Range_.meter);
    addMeter(name("energy.mmu_pde"), &mPde_.meter);
    addMeter(name("energy.mmu_pdpte"), &mPdpte_.meter);
    addMeter(name("energy.mmu_pml4"), &mPml4_.meter);
    addMeter(name("energy.walk_mem"), &walkMemMeter_);
    if (rangeWalker_)
        addMeter(name("energy.range_walk_mem"), &rangeWalkMemMeter_);
    if (nestedWalker_) {
        addMeter(name("energy.host_pwc"), &mHostPwc_.meter);
        addMeter(name("energy.host_walk_mem"), &hostWalkMemMeter_);
    }
    if (l3Cache_)
        addMeter(name("energy.l3_tlb"), &mL3_.meter);
    if (l3Dram_)
        addMeter(name("energy.dram_tlb"), &mDram_.meter);

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
        std::vector<obs::ProvStruct> ids{obs::ProvStruct::L1Tlb4K};
        if (l1Page2M_)
            ids.push_back(obs::ProvStruct::L1Tlb2M);
        if (l1Page1G_)
            ids.push_back(obs::ProvStruct::L1Tlb1G);
        lite_->setProvenance(prov_, coreId_, &stats_.instructions,
                             std::move(ids));
    }
}

PicoJoules
Mmu::dynamicEnergyTotal() const
{
    // Summation order == ProvStruct enum order (reconciliation replays
    // this exact IEEE addition sequence); host and L3 meters append
    // last and read 0.0 in flat / identity-host / --l3=none runs, so
    // adding them is bit-identical to the pre-L3 sum there.
    return m4K_.meter.total() + m2M_.meter.total() + m1G_.meter.total() +
           mL2_.meter.total() + mL1Range_.meter.total() +
           mL2Range_.meter.total() + mPde_.meter.total() +
           mPdpte_.meter.total() + mPml4_.meter.total() +
           walkMemMeter_.total() + rangeWalkMemMeter_.total() +
           mHostPwc_.meter.total() + hostWalkMemMeter_.total() +
           mL3_.meter.total() + mDram_.meter.total();
}

void
Mmu::emitIntervalRecord(InstrCount intervalInstructions)
{
    obs::IntervalRecord rec;
    rec.core = coreId_;
    rec.interval = intervalIndex_++;
    rec.startInstr = lastInterval_.instructions;
    rec.instructions = intervalInstructions;

    // Interval deltas. A tick retiring several intervals at once books
    // all its events into the first one it closes; the rest read zero.
    rec.memOps = stats_.memOps - lastInterval_.memOps;
    rec.l1Hits = stats_.l1Hits - lastInterval_.l1Hits;
    rec.l1Misses = stats_.l1Misses - lastInterval_.l1Misses;
    rec.l2Hits = stats_.l2Hits - lastInterval_.l2Hits;
    rec.l2Misses = stats_.l2Misses - lastInterval_.l2Misses;
    rec.hostWalkRefs = stats_.hostWalkMemRefs - lastInterval_.hostWalkRefs;
    rec.l3Probes = stats_.l3Probes - lastInterval_.l3Probes;
    rec.l3Hits = stats_.l3Hits - lastInterval_.l3Hits;
    const Cycles missCycles = stats_.tlbMissCycles();
    rec.missCycles = missCycles - lastInterval_.missCycles;
    const PicoJoules dynamicPj = dynamicEnergyTotal();
    rec.dynamicPj = dynamicPj - lastInterval_.dynamicPj;

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

    rec.wayMask.emplace_back(l1Page4K_->name(), l1Page4K_->activeWays());
    if (l1Page2M_)
        rec.wayMask.emplace_back(l1Page2M_->name(),
                                 l1Page2M_->activeWays());
    if (l1Page1G_)
        rec.wayMask.emplace_back(l1Page1G_->name(),
                                 l1Page1G_->activeWays());

    std::uint64_t mismatches = 0;
    if (checker_) {
        mismatches = checker_->stats().mismatches();
        rec.checkMismatches = mismatches - lastInterval_.checkMismatches;
    }
    std::uint64_t injected = 0;
    if (injectStats_) {
        injected = injectStats_->injected();
        rec.faultsInjected = injected - lastInterval_.faultsInjected;
    }

    lastInterval_.instructions += intervalInstructions;
    lastInterval_.memOps = stats_.memOps;
    lastInterval_.l1Hits = stats_.l1Hits;
    lastInterval_.l1Misses = stats_.l1Misses;
    lastInterval_.l2Hits = stats_.l2Hits;
    lastInterval_.l2Misses = stats_.l2Misses;
    lastInterval_.hostWalkRefs = stats_.hostWalkMemRefs;
    lastInterval_.l3Probes = stats_.l3Probes;
    lastInterval_.l3Hits = stats_.l3Hits;
    lastInterval_.missCycles = missCycles;
    lastInterval_.dynamicPj = dynamicPj;
    lastInterval_.checkMismatches = mismatches;
    lastInterval_.faultsInjected = injected;

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
    auto addStruct = [&report](const std::string &name, const Metered &m,
                               PicoJoules &category) {
        if (m.meter.reads() == 0 && m.meter.writes() == 0)
            return;
        category += m.meter.total();
        report.structs.push_back({name, m.meter.reads(), m.meter.writes(),
                                  m.meter.readEnergy(),
                                  m.meter.writeEnergy(), m.id});
    };

    auto &b = report.breakdown;
    addStruct(l1Page4K_->name(), m4K_, b.l1Tlb);
    if (l1Page2M_)
        addStruct(l1Page2M_->name(), m2M_, b.l1Tlb);
    if (l1Page1G_)
        addStruct(l1Page1G_->name(), m1G_, b.l1Tlb);
    if (l1Range_)
        addStruct(l1Range_->name(), mL1Range_, b.l1Tlb);
    addStruct(l2Page_->name(), mL2_, b.l2Tlb);
    if (l2Range_)
        addStruct(l2Range_->name(), mL2Range_, b.l2Tlb);
    addStruct("MMU-cache-PDE", mPde_, b.mmuCache);
    addStruct("MMU-cache-PDPTE", mPdpte_, b.mmuCache);
    addStruct("MMU-cache-PML4", mPml4_, b.mmuCache);

    // The walk-style meters share one row shape: read-only references
    // whose row appears only when the meter was touched, so untouched
    // meters leave the report — hence the digest — unchanged. (The
    // category starts at 0.0 and every addend is >= 0, so += matches
    // the old direct assignment bit for bit.)
    auto addMemMeter = [&report](const std::string &name,
                                 const energy::EnergyMeter &m,
                                 obs::ProvStruct id, PicoJoules &category) {
        category += m.total();
        if (m.reads() == 0)
            return;
        report.structs.push_back(
            {name, m.reads(), 0, m.readEnergy(), 0.0, id});
    };

    addMemMeter("page-walk memory", walkMemMeter_, obs::ProvStruct::WalkMem,
                b.pageWalkMem);
    addMemMeter("range-walk memory", rangeWalkMemMeter_,
                obs::ProvStruct::RangeWalkMem, b.rangeWalkMem);

    // Host (nested-paging) dimension: zero reads in flat and
    // identity-host runs, so the rows are skipped there.
    addStruct("host-PWC", mHostPwc_, b.mmuCache);
    addMemMeter("host-walk memory", hostWalkMemMeter_,
                obs::ProvStruct::HostWalkMem, b.hostWalkMem);

    // L3 translation tier (rows appear only when a tier ran).
    addStruct("L3-cache TLB", mL3_, b.l3Tlb);
    addStruct("DRAM TLB", mDram_, b.l3Tlb);

    // Leakage of the currently active configuration and the static
    // energy integrals (companion metrics; the headline results are
    // dynamic energy).
    report.leakagePower = leakagePower(true);
    report.staticEnergyGated = staticGatedPj_;
    report.staticEnergyFull = staticFullPj_;

    return report;
}

} // namespace eat::core
