/**
 * @file
 * Online differential checker for the MMU datapath.
 *
 * The MMU reports the outcome of every translation (which structure
 * served it, the physical address and page size it produced); the
 * checker replays the lookup against the golden ShadowTranslator and
 * counts disagreements instead of trusting the TLB hierarchy. At the
 * Full level it additionally audits Lite's way masks: active-way counts
 * must stay powers of two within the physical associativity, and
 * disabled ways must hold no valid entries (a dropped invalidation is
 * exactly the stale-translation hazard way-disabling must never create,
 * paper §4.2.3).
 *
 * The checker is passive — it charges no energy and mutates no modeled
 * state — so enabling it cannot change simulation results, only vet
 * them.
 */

#ifndef EAT_CHECK_SHADOW_CHECKER_HH
#define EAT_CHECK_SHADOW_CHECKER_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.hh"
#include "check/shadow_translator.hh"
#include "tlb/set_assoc_tlb.hh"

namespace eat::obs
{
class MetricRegistry;
class TraceWriter;
} // namespace eat::obs

namespace eat::check
{

/** How much cross-checking the simulation performs. */
enum class CheckLevel
{
    Off,   ///< no checking (fastest)
    Paddr, ///< verify physical address + page size of every translation
    Full,  ///< Paddr plus hit-source legality and way-mask audits
};

std::string_view checkLevelName(CheckLevel level);

/** Parse "off" | "paddr" | "full". */
Result<CheckLevel> parseCheckLevel(std::string_view text);

/** Mismatch counters, by the invariant that failed. */
struct CheckStats
{
    std::uint64_t translationChecks = 0; ///< translations cross-checked
    std::uint64_t wayMaskAudits = 0;     ///< structures audited

    std::uint64_t paddrMismatches = 0;  ///< wrong physical address
    std::uint64_t sizeMismatches = 0;   ///< wrong page size
    std::uint64_t sourceViolations = 0; ///< illegal hit source
    std::uint64_t wayMaskViolations = 0;

    std::uint64_t
    mismatches() const
    {
        return paddrMismatches + sizeMismatches + sourceViolations +
               wayMaskViolations;
    }
};

/** The per-run differential checker. */
class ShadowChecker
{
  public:
    /**
     * @param level checking depth (constructing with Off is allowed
     *        but pointless; callers normally skip construction).
     * @param pageTable / @p rangeTable the authoritative OS tables the
     *        golden snapshot is derived from.
     */
    ShadowChecker(CheckLevel level, const vm::PageTable &pageTable,
                  const vm::RangeTable *rangeTable);

    /**
     * Register the golden tables of another address space (multicore
     * private mode: one context per task). The constructor's tables are
     * context 0; translations are always checked against the currently
     * active context (setActiveAsid).
     */
    void addContext(tlb::Asid asid, const vm::PageTable &pageTable,
                    const vm::RangeTable *rangeTable);

    /** Follow the MMU's context switch; @p asid must be registered. */
    void setActiveAsid(tlb::Asid asid);

    /** Re-snapshot one context's tables (after a remap). */
    void rebuildContext(tlb::Asid asid);

    /**
     * Prefix mismatch messages with @p label (e.g. "core2: ") so
     * multicore logs attribute each disagreement to the core that
     * observed it. Single-core runs leave this empty, keeping their
     * messages (and result digests) unchanged.
     */
    void setCoreLabel(std::string label) { coreLabel_ = std::move(label); }

    /**
     * The MMU produced @p paddr for @p vaddr from a page entry of
     * @p size. @p sourceName labels the serving structure in messages.
     */
    void
    onPageTranslation(Addr vaddr, Addr paddr, vm::PageSize size,
                      std::string_view sourceName)
    {
        if (level_ == CheckLevel::Off)
            return;
        ++stats_.translationChecks;
        const auto golden = active_->translatePage(vaddr);
        if (golden && golden->size == size &&
            golden->paddr(vaddr) == paddr) {
            return;
        }
        pageMismatch(vaddr, paddr, size, sourceName, golden);
    }

    /** The MMU produced @p paddr for @p vaddr from a range entry. */
    void
    onRangeTranslation(Addr vaddr, Addr paddr, std::string_view sourceName)
    {
        if (level_ == CheckLevel::Off)
            return;
        ++stats_.translationChecks;
        const auto golden = active_->translateRange(vaddr);
        if (golden && golden->paddr(vaddr) == paddr)
            return;
        rangeMismatch(vaddr, paddr, sourceName, golden);
    }

    /** Audit one structure's way mask (Full level). */
    void auditWayMask(const tlb::SetAssocTlb &tlb);

    CheckLevel level() const { return level_; }
    const CheckStats &stats() const { return stats_; }

    /** Human-readable description of the first mismatch (or empty). */
    const std::string &firstMismatch() const { return firstMismatch_; }

    /** Ok iff no mismatch has been observed. */
    Status verdict() const;

    /** Register the check.* counters into @p registry (bindings only;
     *  the registry must not outlive this checker). Multicore runs
     *  pass a @p prefix (e.g. "core2.") to keep names distinct. */
    void registerMetrics(obs::MetricRegistry &registry,
                         const std::string &prefix = "") const;

    /** Attach a tracer (not owned; null detaches): every mismatch
     *  becomes an instant event on the checker track, placed under
     *  @p core's process in multicore traces. */
    void setTrace(obs::TraceWriter *trace, unsigned core = 0);

  private:
    /** Count one mismatch in @p counter. @p format builds its message,
     *  and runs only when firstMismatch(), the trace or a warning will
     *  use it: faulty runs report thousands of mismatches. */
    template <typename Format>
    void recordMismatch(std::uint64_t &counter, Format &&format);

    /** Keep @p message as the first mismatch, a trace instant and a
     *  warning, each while it still wants one. */
    void keepMismatch(std::string message);

    /** @p tlb's finding at its previous audit (0 before the first). */
    std::uint64_t &lastWayMaskFinding(const tlb::SetAssocTlb &tlb);

    /** Classify and record a failed page-translation check. */
    void pageMismatch(Addr vaddr, Addr paddr, vm::PageSize size,
                      std::string_view sourceName,
                      const std::optional<vm::Translation> &golden);

    /** Classify and record a failed range-translation check. */
    void rangeMismatch(Addr vaddr, Addr paddr, std::string_view sourceName,
                       const std::optional<vm::RangeTranslation> &golden);

    CheckLevel level_;
    /** Golden tables by ASID; the constructor's are context 0 (the
     *  only one single-core). Map nodes never move, so active_ stays
     *  valid as contexts are added. */
    std::map<tlb::Asid, ShadowTranslator> contexts_;
    ShadowTranslator *active_ = nullptr;
    tlb::Asid activeAsid_ = 0;
    std::string coreLabel_;
    CheckStats stats_;
    std::string firstMismatch_;
    unsigned warningsEmitted_ = 0;
    /** Each audited TLB with its previous audit's finding: a way-mask
     *  fault counts once, at the first audit that sees it. */
    std::vector<std::pair<const tlb::SetAssocTlb *, std::uint64_t>>
        wayMaskFindings_;

    obs::TraceWriter *trace_ = nullptr;
    unsigned traceTrack_ = 0;
};

} // namespace eat::check

#endif // EAT_CHECK_SHADOW_CHECKER_HH
