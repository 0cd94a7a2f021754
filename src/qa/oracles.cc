#include "qa/oracles.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/mmu_stats.hh"
#include "l3/l3_config.hh"

namespace eat::qa
{

namespace
{

/** Relative tolerance for comparing accumulated energy sums. */
constexpr double kEnergyRelTol = 1e-9;

const energy::StructEnergyRow *
findRow(const std::vector<energy::StructEnergyRow> &rows,
        std::string_view name)
{
    for (const auto &row : rows) {
        if (row.name == name)
            return &row;
    }
    return nullptr;
}

bool
nearlyEqual(double a, double b)
{
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= kEnergyRelTol * scale;
}

/** One oracle's book-keeping: note it ran, record a violation if any.
 *  An oracle evaluated more than once (per core, or on a helper run)
 *  is listed once in the verdict. */
class Oracle
{
  public:
    Oracle(OracleVerdict &verdict, std::string name)
        : verdict_(verdict), name_(std::move(name))
    {
        auto &checked = verdict_.checked;
        if (std::find(checked.begin(), checked.end(), name_) ==
            checked.end())
            checked.push_back(name_);
    }

    template <typename... Args>
    void
    expect(bool ok, Args &&...args)
    {
        if (ok)
            return;
        std::ostringstream os;
        os << name_ << ": ";
        (os << ... << std::forward<Args>(args));
        verdict_.violations.push_back(os.str());
    }

  private:
    OracleVerdict &verdict_;
    std::string name_;
};

/**
 * A lookup that hits a ppn-flipped entry returns a wrong physical
 * address, which the full checker must flag. Flips into entries that
 * are evicted or refilled before their next hit are never read, so
 * their silence is legitimate: the oracle keys on consumed flips, not
 * on landed ones.
 */
void
checkFaultDetection(const sim::SimResult &r, Oracle &oracle)
{
    oracle.expect(r.inject.ppnFlipsConsumed == 0 ||
                      r.check.mismatches() > 0,
                  r.inject.ppnFlipsConsumed,
                  " lookups hit ppn-flipped entries (", r.inject.ppnFlips,
                  " flips landed) but the checker stayed silent");
}

void
checkEnergyConservation(const sim::SimResult &r, OracleVerdict &verdict)
{
    Oracle oracle(verdict, "energy-conservation");

    double rowSum = 0.0;
    for (const auto &row : r.energy.structs)
        rowSum += row.readEnergy + row.writeEnergy;
    const double total = r.energy.breakdown.total();
    oracle.expect(nearlyEqual(rowSum, total),
                  "sum of per-structure rows ", rowSum,
                  " pJ != breakdown total ", total, " pJ");

    const auto &s = r.stats;
    std::uint64_t bySource = 0;
    for (const auto hits : s.hitsBySource)
        bySource += hits;
    oracle.expect(bySource == s.memOps, "hits by source sum to ", bySource,
                  " but ", s.memOps, " memory operations ran");
    oracle.expect(s.l1Hits + s.l1Misses == s.memOps, "L1 hits ", s.l1Hits,
                  " + misses ", s.l1Misses, " != mem ops ", s.memOps);
    oracle.expect(s.l2Hits + s.l2Misses == s.l1Misses, "L2 hits ",
                  s.l2Hits, " + misses ", s.l2Misses, " != L1 misses ",
                  s.l1Misses);
    const auto walkHits =
        s.hitsBySource[static_cast<unsigned>(core::HitSource::PageWalk)];
    oracle.expect(walkHits == s.l2Misses, "page-walk resolutions ",
                  walkHits, " != L2 misses ", s.l2Misses);

    const auto *walkRow = findRow(r.energy.structs, "page-walk memory");
    const auto walkRowReads = walkRow ? walkRow->reads : 0;
    oracle.expect(walkRowReads == s.walkMemRefs,
                  "page-walk memory row charged ", walkRowReads,
                  " reads but the walker made ", s.walkMemRefs,
                  " references");
    const auto *rangeRow = findRow(r.energy.structs, "range-walk memory");
    const auto rangeRowReads = rangeRow ? rangeRow->reads : 0;
    oracle.expect(rangeRowReads == s.rangeWalkMemRefs,
                  "range-walk memory row charged ", rangeRowReads,
                  " reads but the walker made ", s.rangeWalkMemRefs,
                  " references");
}

/**
 * The two-dimensional walk identities. Under a paged host every guest
 * page-walk reference plus the final guest-physical data address takes
 * its own host walk, so hostWalks == walkMemRefs + walks exactly,
 * where walks is l2Misses minus the L3-tier hits that skipped the walk;
 * the host-PWC is probed once per host walk and the host-walk memory
 * meter charges one read per host reference. Flat and identity-host
 * runs must keep the whole host dimension at zero — that is what makes
 * their digests comparable to bare-metal runs.
 */
void
checkNestedWalkAccounting(const sim::SimResult &r, bool pagedHost,
                          OracleVerdict &verdict)
{
    Oracle oracle(verdict, "nested-walk-accounting");

    const auto &s = r.stats;
    const auto *pwcRow = findRow(r.energy.structs, "host-PWC");
    const auto *hostRow = findRow(r.energy.structs, "host-walk memory");
    if (pagedHost) {
        const auto walks = s.l2Misses - s.l3Hits;
        oracle.expect(s.hostWalks == s.walkMemRefs + walks,
                      s.hostWalks, " host walks but ", s.walkMemRefs,
                      " guest walk references + ", walks,
                      " nested walks demand one each");
        const auto pwcReads = pwcRow ? pwcRow->reads : 0;
        oracle.expect(pwcReads == s.hostWalks,
                      "host-PWC row charged ", pwcReads,
                      " probes but the walker made ", s.hostWalks,
                      " host walks");
        const auto hostReads = hostRow ? hostRow->reads : 0;
        oracle.expect(hostReads == s.hostWalkMemRefs,
                      "host-walk memory row charged ", hostReads,
                      " reads but the walker made ", s.hostWalkMemRefs,
                      " references");
        if (walks > 0) {
            oracle.expect(s.hostWalkMemRefs > 0,
                          "paged host made ", s.hostWalks,
                          " host walks but no memory references");
        }
    } else {
        oracle.expect(s.hostWalks == 0 && s.hostWalkMemRefs == 0,
                      "host dimension active (", s.hostWalks, " walks, ",
                      s.hostWalkMemRefs,
                      " refs) without a paged host table");
        oracle.expect(!hostRow || hostRow->reads == 0,
                      "host-walk memory row present without a paged "
                      "host table");
    }
}

/**
 * L3-tier bookkeeping. The tier sits behind the L2 TLBs and in front of
 * the walker, probed on *every* L2 miss, so l3Probes == l2Misses is the
 * anchor identity; hits and misses partition the probes, fills are
 * bounded by misses (only walked 4 KB translations are parked), and the
 * energy rows must charge exactly one read per probe stage. With the
 * tier off every counter stays zero and no L3 row may appear — that is
 * what keeps --l3=none digest-identical to pre-L3 builds.
 */
void
checkL3Accounting(const sim::SimResult &r, l3::L3Mode mode,
                  OracleVerdict &verdict)
{
    Oracle oracle(verdict, "l3-accounting");

    const auto &s = r.stats;
    const auto *cacheRow = findRow(r.energy.structs, "L3-cache TLB");
    const auto *dramRow = findRow(r.energy.structs, "DRAM TLB");

    if (mode == l3::L3Mode::None) {
        oracle.expect(s.l3Probes == 0 && s.l3Hits == 0 &&
                          s.l3Misses == 0 && s.l3Fills == 0 &&
                          s.l3Evictions == 0 && s.dramTagHits == 0 &&
                          s.dramAccesses == 0,
                      "L3 counters active (", s.l3Probes,
                      " probes) without an L3 tier");
        oracle.expect(!cacheRow && !dramRow,
                      "an L3 energy row appeared without an L3 tier");
        return;
    }

    oracle.expect(s.l3Probes == s.l2Misses,
                  "the tier must be probed on every L2 miss: ",
                  s.l3Probes, " probes but ", s.l2Misses, " L2 misses");
    oracle.expect(s.l3Hits + s.l3Misses == s.l3Probes, "L3 hits ",
                  s.l3Hits, " + misses ", s.l3Misses, " != probes ",
                  s.l3Probes);
    oracle.expect(s.l3Fills <= s.l3Misses, s.l3Fills,
                  " fills exceed the ", s.l3Misses,
                  " misses that could have walked");
    oracle.expect(s.l3Evictions <= s.l3Fills, s.l3Evictions,
                  " evictions exceed ", s.l3Fills, " fills");

    if (mode == l3::L3Mode::Cache) {
        oracle.expect(s.dramTagHits == 0 && s.dramAccesses == 0,
                      "cache-resident tier kept a DRAM book: ",
                      s.dramTagHits, " tag hits, ", s.dramAccesses,
                      " accesses");
        oracle.expect(!dramRow, "DRAM TLB row in a cache-tier run");
        const auto reads = cacheRow ? cacheRow->reads : 0;
        const auto writes = cacheRow ? cacheRow->writes : 0;
        oracle.expect(reads == s.l3Probes, "L3-cache TLB row charged ",
                      reads, " reads for ", s.l3Probes, " probes");
        oracle.expect(writes == s.l3Fills, "L3-cache TLB row charged ",
                      writes, " writes for ", s.l3Fills, " fills");
    } else {
        oracle.expect(!cacheRow, "L3-cache TLB row in a dram-tier run");
        oracle.expect(s.dramTagHits <= s.l3Probes, s.dramTagHits,
                      " tag-cache hits exceed ", s.l3Probes, " probes");
        oracle.expect(s.dramAccesses <= s.l3Probes, s.dramAccesses,
                      " DRAM accesses exceed ", s.l3Probes, " probes");
        // Every probe pays the SRAM tag stage; only dramAccesses reach
        // the array. Both stages charge reads on the one meter.
        const auto reads = dramRow ? dramRow->reads : 0;
        const auto writes = dramRow ? dramRow->writes : 0;
        oracle.expect(reads == s.l3Probes + s.dramAccesses,
                      "DRAM TLB row charged ", reads, " reads for ",
                      s.l3Probes, " tag probes + ", s.dramAccesses,
                      " array accesses");
        oracle.expect(writes == s.l3Fills, "DRAM TLB row charged ",
                      writes, " writes for ", s.l3Fills, " fills");
    }
}

/**
 * The load-bearing provenance property: summing the traced events'
 * energy — per (core, structure), in the sink's exact accumulators —
 * equals the meters' aggregate rows *bit for bit*. No tolerance: the
 * sink charges the identical double at the identical choke point, so
 * any drift means an instrumentation gap, a double-charge, or a
 * summation-order bug.
 */
void
checkProvenanceReconciliation(const obs::ProvSummary &prov,
                              const sim::SimResult &r, unsigned core,
                              OracleVerdict &verdict)
{
    Oracle oracle(verdict, "provenance-reconciliation");

    static const obs::ProvCoreTotals kZero{};
    const obs::ProvCoreTotals &totals =
        core < prov.cores.size() ? prov.cores[core] : kZero;

    for (const auto &row : r.energy.structs) {
        const auto idx = static_cast<unsigned>(row.id);
        if (idx >= obs::kProvMeteredStructs)
            continue;
        const auto &t = totals.structs[idx];
        oracle.expect(t.reads == row.reads, "core ", core, " ",
                      row.name, ": traced ", t.reads,
                      " reads but the meter counted ", row.reads);
        oracle.expect(t.writes == row.writes, "core ", core, " ",
                      row.name, ": traced ", t.writes,
                      " writes but the meter counted ", row.writes);
        oracle.expect(t.readPj == row.readEnergy, "core ", core, " ",
                      row.name, ": traced read energy ", t.readPj,
                      " pJ != metered ", row.readEnergy, " pJ (exact)");
        oracle.expect(t.writePj == row.writeEnergy, "core ", core, " ",
                      row.name, ": traced write energy ", t.writePj,
                      " pJ != metered ", row.writeEnergy, " pJ (exact)");
    }

    oracle.expect(totals.shootdowns == r.stats.shootdownsInitiated,
                  "core ", core, ": traced ", totals.shootdowns,
                  " shootdowns but the core initiated ",
                  r.stats.shootdownsInitiated);
    oracle.expect(totals.shootdownPj == r.stats.shootdownEnergyPj,
                  "core ", core, ": traced shootdown energy ",
                  totals.shootdownPj, " pJ != metered ",
                  r.stats.shootdownEnergyPj, " pJ (exact)");
}

/**
 * The LRU inclusion (stack) property, phrased over way masks: shrinking
 * the L1 4 KB TLB while keeping its set count — 64x4 to 32x2 to 16x1,
 * all 16 sets — keeps every set's reference stream identical, so the
 * smaller TLB's hits are a subset of the larger's. More ways may never
 * lose hits, fewer ways may never gain them, and no geometry may change
 * any translation result (the shadow checker must stay silent).
 *
 * Only meaningful where the 4 KB TLB's fill stream is self-contained
 * and static: Base4K/THP organizations, Lite off, split L1.
 */
void
checkWayMonotonicity(const Scenario &scenario, const sim::SimResult &full,
                     OracleVerdict &verdict)
{
    Oracle oracle(verdict, "way-monotonicity");

    auto hits4K = [](const sim::SimResult &r) {
        return r.stats
            .hitsBySource[static_cast<unsigned>(core::HitSource::L1Page4K)];
    };

    std::uint64_t priorHits = hits4K(full);
    std::uint64_t priorMisses = full.stats.l1Misses;
    for (const unsigned ways : {2u, 1u}) {
        auto cfg = scenario.toMcConfig();
        // Same set count (16), fewer ways: a strict capacity shrink
        // with identical indexing.
        cfg.base.mmu.l1Tlb4K.entries = 16 * ways;
        cfg.base.mmu.l1Tlb4K.ways = ways;
        const auto shrunk = mc::mcSimulate(cfg).perCore[0];

        oracle.expect(hits4K(shrunk) <= priorHits, ways,
                      "-way L1 4K TLB hit ", hits4K(shrunk),
                      " times, more than the ", priorHits,
                      "-hit larger geometry (inclusion violated)");
        oracle.expect(shrunk.stats.l1Misses >= priorMisses,
                      "L1 misses dropped from ", priorMisses, " to ",
                      shrunk.stats.l1Misses, " when shrinking to ", ways,
                      " ways");
        oracle.expect(shrunk.check.mismatches() == 0,
                      "translation results changed at ", ways, " ways: ",
                      shrunk.firstMismatch);
        oracle.expect(shrunk.stats.memOps == full.stats.memOps,
                      "operation stream changed size: ",
                      shrunk.stats.memOps, " vs ", full.stats.memOps);

        priorHits = hits4K(shrunk);
        priorMisses = shrunk.stats.l1Misses;
    }
}

} // namespace

std::string
resultDigest(const sim::SimResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << std::hexfloat;

    const auto &s = r.stats;
    os << "i" << s.instructions << " m" << s.memOps << " h" << s.l1Hits
       << '/' << s.l1Misses << " l2" << s.l2Hits << '/' << s.l2Misses
       << " w" << s.walkMemRefs << " hw" << s.hostWalks << '/'
       << s.hostWalkMemRefs << " rw" << s.rangeWalks << '/'
       << s.rangeWalkMemRefs;
    // The L3 tier's section is conditional so that --l3=none digests
    // stay byte-identical to pre-L3 builds (the golden-digest contract).
    if (s.l3Probes > 0) {
        os << " l3" << s.l3Probes << '/' << s.l3Hits << '/'
           << s.l3Misses << '/' << s.l3Fills << '/' << s.l3Evictions
           << '/' << s.dramTagHits << '/' << s.dramAccesses;
    }
    os << " c" << s.l1MissCycles << '/'
       << s.walkCycles << " wl" << s.l1WayLookups4K.toString() << '/'
       << s.l1WayLookups2M.toString();
    os << " src";
    for (const auto hits : s.hitsBySource)
        os << ':' << hits;

    os << " e" << r.energy.breakdown.l1Tlb << '/'
       << r.energy.breakdown.l2Tlb << '/' << r.energy.breakdown.mmuCache
       << '/' << r.energy.breakdown.pageWalkMem << '/'
       << r.energy.breakdown.rangeWalkMem << '/'
       << r.energy.breakdown.hostWalkMem;
    if (s.l3Probes > 0)
        os << '/' << r.energy.breakdown.l3Tlb;
    os << " st" << r.energy.leakagePower << '/'
       << r.energy.staticEnergyGated << '/' << r.energy.staticEnergyFull;
    for (const auto &row : r.energy.structs) {
        os << " [" << row.name << ' ' << row.reads << ' ' << row.writes
           << ' ' << row.readEnergy << ' ' << row.writeEnergy << ']';
    }

    os << " lite" << r.lite.intervals << '/' << r.lite.wayDisableEvents
       << '/' << r.lite.degradationActivations << '/'
       << r.lite.randomActivations;
    os << " chk" << r.check.translationChecks << '/'
       << r.check.wayMaskAudits << '/' << r.check.paddrMismatches << '/'
       << r.check.sizeMismatches << '/' << r.check.sourceViolations << '/'
       << r.check.wayMaskViolations;
    os << " inj" << r.inject.opportunities << '/' << r.inject.tagFlips
       << '/' << r.inject.ppnFlips << '/'
       << r.inject.droppedInvalidations << '/'
       << r.inject.spuriousEnables;
    os << " os" << r.pages4K << '/' << r.pages2M << '/' << r.numRanges
       << '/' << r.rangeCoverage;
    if (!r.firstMismatch.empty())
        os << " mm{" << r.firstMismatch << '}';
    return os.str();
}

namespace
{

/**
 * Shared digest body. The cost books — IPI shootdown charges and hw
 * coherence charges, plus the initiator/receipt counters that identify
 * which book a run kept — enter only when @p includeCostBooks is set:
 * mcResultDigest() includes them (full bit-identity), mcOutcomeDigest()
 * excludes them (IPI-vs-hw architectural equivalence).
 */
std::string
mcDigest(const mc::McResult &r, bool includeCostBooks)
{
    std::ostringstream os;
    os.precision(17);
    os << std::hexfloat;
    os << "cores" << r.cores << " mix{" << r.mixName << '}'
       << (r.sharedAddressSpace ? " shared" : " private")
       << (r.ctxFlush ? " ctxflush" : "") << " q"
       << r.quantumInstructions << " sd" << r.shootdownEvents << '/'
       << r.shootdownInvalidations;
    if (includeCostBooks) {
        os << " coh{" << mc::coherenceModeName(r.coherence) << '}'
           << r.coherenceProbes << '/' << r.coherenceTargetedCores;
    }
    for (std::size_t c = 0; c < r.perCore.size(); ++c) {
        const auto &s = r.perCore[c].stats;
        os << "\ncore" << c << ' ' << resultDigest(r.perCore[c]) << " mc"
           << s.contextSwitches << '/' << s.shootdownInvalidations;
        if (includeCostBooks) {
            os << " ipi" << s.shootdownsInitiated << '/'
               << s.shootdownsReceived << '/' << s.shootdownCycles << '/'
               << s.shootdownEnergyPj << " hwc" << s.cohProbes << '/'
               << s.cohTargetedCores << '/'
               << s.cohInvalidationsReceived << '/' << s.cohCycles << '/'
               << s.cohEnergyPj;
        }
    }
    for (std::size_t t = 0; t < r.tasks.size(); ++t) {
        const auto &task = r.tasks[t];
        os << "\ntask" << t << ' ' << task.workload << " a" << task.asid
           << " i" << task.instructions << " r" << task.remapEvents
           << " os" << task.pages4K << '/' << task.pages2M << '/'
           << task.numRanges << '/' << task.rangeCoverage;
    }
    return os.str();
}

} // namespace

std::string
mcResultDigest(const mc::McResult &r)
{
    return mcDigest(r, true);
}

std::string
mcOutcomeDigest(const mc::McResult &r)
{
    return mcDigest(r, false);
}

namespace
{

/**
 * The multicore cost books (DESIGN.md §12): per-core invalidations sum
 * to the run's tally, and each remap is charged to exactly one book —
 * IPI broadcasts interrupt every remote core, hw coherence probes the
 * filter once and charges its cost model — while the other stays zero.
 */
void
checkShootdownAccounting(const mc::McResult &result, const mc::McConfig &cfg,
                         OracleVerdict &verdict)
{
    Oracle oracle(verdict, "shootdown-accounting");
    const bool hw = result.coherence == mc::McConfig::CoherenceMode::Hw;
    std::uint64_t initiated = 0;
    std::uint64_t received = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t probes = 0;
    std::uint64_t targeted = 0;
    std::uint64_t cohReceived = 0;
    for (const auto &r : result.perCore) {
        initiated += r.stats.shootdownsInitiated;
        received += r.stats.shootdownsReceived;
        invalidations += r.stats.shootdownInvalidations;
        probes += r.stats.cohProbes;
        targeted += r.stats.cohTargetedCores;
        cohReceived += r.stats.cohInvalidationsReceived;
    }
    const std::uint64_t cores = result.perCore.size();
    oracle.expect(invalidations == result.shootdownInvalidations,
                  "per-core invalidations sum to ", invalidations,
                  " but the run counted ", result.shootdownInvalidations);
    if (!hw) {
        oracle.expect(received == result.shootdownEvents * (cores - 1),
                      "every broadcast interrupts every remote core: ",
                      result.shootdownEvents, " events on ", cores,
                      " cores but ", received, " receipts");
        if (cores > 1) {
            oracle.expect(initiated == result.shootdownEvents, initiated,
                          " initiations for ", result.shootdownEvents,
                          " broadcasts");
        }
        oracle.expect(probes == 0 && targeted == 0 && cohReceived == 0,
                      "IPI mode kept a hw coherence book: ", probes,
                      " probes, ", targeted, " targets, ", cohReceived,
                      " receipts");
        return;
    }
    oracle.expect(initiated == 0 && received == 0,
                  "hw mode kept an IPI book: ", initiated,
                  " initiations, ", received, " receipts");
    if (cores > 1) {
        oracle.expect(probes == result.shootdownEvents,
                      "every remap must probe the filter: ",
                      result.shootdownEvents, " events but ", probes,
                      " probes");
    }
    oracle.expect(probes == result.coherenceProbes &&
                      targeted == result.coherenceTargetedCores,
                  "per-core probe book (", probes, '/', targeted,
                  ") diverged from the run's (", result.coherenceProbes,
                  '/', result.coherenceTargetedCores, ')');
    oracle.expect(cohReceived == targeted, "filter targeted ", targeted,
                  " sharer cores but ", cohReceived,
                  " invalidation receipts landed");
    for (std::size_t c = 0; c < result.perCore.size(); ++c) {
        const auto &s = result.perCore[c].stats;
        const auto expectCycles =
            cfg.base.mmu.cohProbeCycles * s.cohProbes +
            cfg.base.mmu.cohPerCoreCycles * s.cohTargetedCores;
        oracle.expect(s.cohCycles == expectCycles, "core ", c, " charged ",
                      s.cohCycles, " coherence cycles; the cost model says ",
                      expectCycles);
    }
}

} // namespace

OracleVerdict
runOracles(const Scenario &scenario, Mutation mutation)
{
    OracleVerdict verdict;

    // Every scenario runs on the one engine; a single-core scenario is
    // judged and digested by its one core, so its verdict digest is the
    // core's resultDigest().
    const bool multicore = scenario.multicore();
    auto digestOf = [multicore](const mc::McResult &r) {
        return multicore ? mcResultDigest(r) : resultDigest(r.perCore[0]);
    };

    auto cfg = scenario.toMcConfig();
    if (mutation == Mutation::CorruptTlbFill) {
        // The defect under test: fills get corrupted but the scenario
        // declares no fault plan, so the silence oracle must fire.
        cfg.base.faultSpec = "ppn-flip@l2:0.01,ppn-flip@l1-4k:0.01";
    }
    // In-memory provenance accumulation on the primary runs: the
    // reconciliation oracle needs the exact traced totals. The digests
    // never include provenance, so replay comparisons are unaffected.
    cfg.base.provenanceEnabled = true;

    auto result = mc::mcSimulate(cfg);
    verdict.digest = digestOf(result);
    {
        Oracle oracle(verdict, multicore ? "mc-replay-determinism"
                                         : "replay-determinism");
        oracle.expect(digestOf(mc::mcSimulate(cfg)) == verdict.digest,
                      "two runs of one scenario diverged; first run: ",
                      verdict.digest.substr(0, 160), "...");
    }

    if (mutation == Mutation::SkipEnergyCharge) {
        // The defect under test: one structure's activity goes
        // unaccounted. Conservation must catch the imbalance.
        for (auto &row : result.perCore[0].energy.structs) {
            if (row.readEnergy > 0.0) {
                row.readEnergy *= 0.5;
                break;
            }
        }
    }

    {
        Oracle oracle(verdict, "checker-activity");
        for (std::size_t c = 0; c < result.perCore.size(); ++c) {
            const auto &r = result.perCore[c];
            oracle.expect(r.checkLevel == check::CheckLevel::Full, "core ",
                          c, " ran without the full shadow checker");
            oracle.expect(r.check.translationChecks > 0, "core ", c,
                          "'s shadow checker never checked a translation");
        }
    }

    if (scenario.faultSpec.empty()) {
        Oracle oracle(verdict, "checker-silence");
        std::uint64_t mismatches = 0;
        std::uint64_t injected = 0;
        std::string first;
        for (const auto &r : result.perCore) {
            mismatches += r.check.mismatches();
            injected += r.inject.injected();
            if (first.empty())
                first = r.firstMismatch;
        }
        oracle.expect(mismatches == 0, "fault-free run reported ",
                      mismatches, " mismatches; first: ", first);
        oracle.expect(injected == 0, "fault-free run injected ", injected,
                      " faults");
    } else {
        Oracle oracle(verdict, "fault-detection");
        checkFaultDetection(result.perCore[cfg.faultCore], oracle);
        // Attribution: the injector touched exactly one core's TLBs,
        // so every other core's checker must stay silent.
        for (std::size_t c = 0; c < result.perCore.size(); ++c) {
            if (c == cfg.faultCore)
                continue;
            oracle.expect(result.perCore[c].check.mismatches() == 0,
                          "faults targeted core ", cfg.faultCore,
                          " but core ", c, "'s checker fired: ",
                          result.perCore[c].firstMismatch);
        }
    }

    const bool pagedHost =
        cfg.base.mmu.vmEnabled && !cfg.base.mmu.vmIdentityHost;
    std::uint64_t memOps = 0;
    for (unsigned c = 0; c < result.perCore.size(); ++c) {
        const auto &r = result.perCore[c];
        memOps += r.stats.memOps;
        checkEnergyConservation(r, verdict);
        checkNestedWalkAccounting(r, pagedHost, verdict);
        checkL3Accounting(r, cfg.base.mmu.l3Mode, verdict);
        if (result.provenanceEnabled)
            checkProvenanceReconciliation(result.provenance, r, c, verdict);
    }
    if (result.provenanceEnabled) {
        Oracle oracle(verdict, "provenance-reconciliation");
        oracle.expect(result.provenance.translations == memOps, "sink saw ",
                      result.provenance.translations,
                      " translations but the cores ran ", memOps,
                      " memory operations");
    }

    if (multicore)
        checkShootdownAccounting(result, cfg, verdict);

    // Cost books must never leak into architectural state: an IPI twin
    // of a hw-coherence scenario performs the identical invalidations,
    // so everything but the charges matches.
    if (multicore && cfg.coherence == mc::McConfig::CoherenceMode::Hw &&
        mutation == Mutation::None) {
        Oracle oracle(verdict, "coherence-equivalence");
        auto ipiCfg = cfg;
        ipiCfg.coherence = mc::McConfig::CoherenceMode::Ipi;
        const auto hwOutcome = mcOutcomeDigest(result);
        const auto ipiOutcome = mcOutcomeDigest(mc::mcSimulate(ipiCfg));
        oracle.expect(hwOutcome == ipiOutcome,
                      "hw coherence changed architectural outcomes; hw: ",
                      hwOutcome.substr(0, 160), "...");
    }

    // An identity host table engages the nested walker but must charge
    // nothing: the run is digest-identical to the same scenario on
    // bare metal.
    if (!multicore && cfg.base.mmu.vmEnabled &&
        cfg.base.mmu.vmIdentityHost && mutation == Mutation::None) {
        Oracle oracle(verdict, "vm-identity-equivalence");
        auto flatCfg = cfg;
        flatCfg.base.mmu.vmEnabled = false;
        flatCfg.base.mmu.vmIdentityHost = false;
        const auto flatDigest = digestOf(mc::mcSimulate(flatCfg));
        oracle.expect(flatDigest == verdict.digest,
                      "identity-host run diverged from bare metal; vm: ",
                      verdict.digest.substr(0, 160), "...");
    }

    const bool wayOracleEligible =
        !multicore &&
        (scenario.org == core::MmuOrg::Base4K ||
         scenario.org == core::MmuOrg::Thp) &&
        scenario.faultSpec.empty() && !scenario.combinedL1 &&
        mutation == Mutation::None;
    if (wayOracleEligible)
        checkWayMonotonicity(scenario, result.perCore[0], verdict);

    return verdict;
}

} // namespace eat::qa
