/**
 * @file
 * Composable synthetic access-pattern primitives.
 *
 * The paper drove its TLB simulator with Pin traces of SPEC2006,
 * BioBench, and PARSEC. This reproduction substitutes deterministic
 * generators built from the primitives below; what matters to the TLB
 * hierarchy is the page-granularity reuse behaviour of the address
 * stream, which the per-workload models in suite.cc calibrate to the
 * published footprints (Table 4) and MPKI bands (Figure 11).
 *
 * Primitives:
 *  - UniformRandomPattern : uniform over a weighted set of extents.
 *  - WorkingSetPattern    : nested working-set levels (the classic
 *    hierarchical-locality model; produces smooth miss-ratio curves).
 *  - SequentialPattern    : streaming with a fixed stride.
 *  - StridedPattern       : large-stride scans (stencil sweeps).
 *  - LocalWalkPattern     : bounded random walk with occasional jumps.
 *  - RegionHotsetPattern  : hot subset of many distinct regions
 *    (allocation-heavy codes; drives range-TLB pressure under RMM).
 *  - MixturePattern       : weighted choice per access.
 *  - PhasedPattern        : rotates children on an instruction clock.
 */

#ifndef EAT_WORKLOADS_PATTERN_HH
#define EAT_WORKLOADS_PATTERN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "vm/memory_manager.hh"

namespace eat::workloads
{

/** A contiguous virtual extent a pattern may touch. */
struct Extent
{
    Addr base = 0;
    std::uint64_t bytes = 0;
};

/** A set of extents addressable as one concatenated span. */
class Span
{
  public:
    Span() = default;
    explicit Span(std::vector<Extent> extents);

    /** Build a span from mapped regions. */
    static Span fromRegions(const std::vector<vm::Region> &regions);

    std::uint64_t bytes() const { return total_; }
    bool empty() const { return total_ == 0; }
    std::size_t numExtents() const { return extents_.size(); }
    const Extent &extent(std::size_t i) const { return extents_.at(i); }

    /** The virtual address at @p offset into the concatenated span. */
    Addr addrAt(std::uint64_t offset) const;

  private:
    /** Index of the extent holding @p offset (< bytes()). */
    std::size_t extentIndex(std::uint64_t offset) const;

    std::vector<Extent> extents_;
    std::vector<std::uint64_t> starts_; ///< prefix offsets per extent
    std::uint64_t total_ = 0;
    /** The one size of every extent, or 0 when the sizes differ. */
    std::uint64_t equalBytes_ = 0;
    /** log2(equalBytes_) when that is a power of two, else -1. */
    int equalShift_ = -1;
    /** Extent that served the last addrAt() (pure lookup memo). */
    mutable std::size_t lastExtent_ = 0;
};

/** Base class of every access-pattern primitive. */
class AccessPattern
{
  public:
    virtual ~AccessPattern() = default;

    /**
     * The next virtual address to access.
     * @param rng the workload's deterministic generator.
     * @param now the current instruction count (drives phases).
     */
    virtual Addr next(Rng &rng, InstrCount now) = 0;
};

using PatternPtr = std::unique_ptr<AccessPattern>;

/** Uniform random over a span. */
class UniformRandomPattern final : public AccessPattern
{
  public:
    explicit UniformRandomPattern(Span span);
    Addr next(Rng &rng, InstrCount now) override;

  private:
    Span span_;
};

/** One nested working-set level: the first @c bytes of the span. */
struct WsLevel
{
    std::uint64_t bytes; ///< level size (levels need not be sorted)
    double weight;       ///< relative access probability
};

/**
 * Hierarchical working sets: with each level's probability, access
 * uniformly within the first level.bytes of the span. Small inner
 * levels model L1-TLB-resident hot data; outer levels model the
 * heavy tail that stresses the L2 TLB and the page walker.
 */
class WorkingSetPattern final : public AccessPattern
{
  public:
    WorkingSetPattern(Span span, std::vector<WsLevel> levels);
    Addr next(Rng &rng, InstrCount now) override;

  private:
    Span span_;
    std::vector<WsLevel> levels_; ///< weights normalized to a CDF
};

/** Streaming access with a fixed stride, wrapping over the span. */
class SequentialPattern final : public AccessPattern
{
  public:
    SequentialPattern(Span span, std::uint64_t strideBytes);
    Addr next(Rng &rng, InstrCount now) override;

  private:
    Span span_;
    std::uint64_t stride_;
    std::uint64_t cursor_ = 0;
};

/**
 * Large-stride scan (stencil sweep): the cursor advances by the stride
 * and shifts its phase by one element on each wrap, so successive
 * sweeps touch different cache lines of the same page sequence.
 */
class StridedPattern final : public AccessPattern
{
  public:
    StridedPattern(Span span, std::uint64_t strideBytes);
    Addr next(Rng &rng, InstrCount now) override;

  private:
    Span span_;
    std::uint64_t stride_;
    std::uint64_t cursor_ = 0;
    std::uint64_t phase_ = 0;
};

/** Bounded random walk with occasional long-distance jumps. */
class LocalWalkPattern final : public AccessPattern
{
  public:
    LocalWalkPattern(Span span, std::uint64_t maxStepBytes,
                     double jumpProbability);
    Addr next(Rng &rng, InstrCount now) override;

  private:
    Span span_;
    std::uint64_t maxStep_;
    double jumpProb_;
    std::uint64_t pos_ = 0;
};

/**
 * Many-region hotset: with @c hotProb access one of the first
 * @c hotRegions regions, else any region; uniform within the region
 * (or within a small staggered per-region window when @c windowBytes
 * is nonzero — real allocations touch objects at varying offsets, and
 * the stagger avoids pathological set aliasing between the identically
 * aligned regions). Under RMM each region is (at least) one range
 * translation, so this pattern controls range-TLB pressure directly.
 */
class RegionHotsetPattern final : public AccessPattern
{
  public:
    RegionHotsetPattern(std::vector<vm::Region> regions,
                        std::size_t hotRegions, double hotProb,
                        std::uint64_t windowBytes = 0);
    Addr next(Rng &rng, InstrCount now) override;

    /**
     * The staggered window offset used for region index @p i of
     * @p regionBytes with windows of @p windowBytes (page aligned;
     * exposed for windowed spans and tests).
     */
    static std::uint64_t windowOffset(std::size_t i,
                                      std::uint64_t regionBytes,
                                      std::uint64_t windowBytes);

  private:
    std::vector<vm::Region> regions_;
    std::size_t hotRegions_;
    double hotProb_;
    std::uint64_t windowBytes_;
};

/** Weighted per-access choice among child patterns. */
class MixturePattern final : public AccessPattern
{
  public:
    MixturePattern(std::vector<PatternPtr> children,
                   std::vector<double> weights);
    Addr next(Rng &rng, InstrCount now) override;

  private:
    std::vector<PatternPtr> children_;
    std::vector<double> cdf_;
};

/** Rotates among child patterns every @c phaseInstructions. */
class PhasedPattern final : public AccessPattern
{
  public:
    PhasedPattern(std::vector<PatternPtr> children,
                  InstrCount phaseInstructions);
    Addr next(Rng &rng, InstrCount now) override;

  private:
    std::vector<PatternPtr> children_;
    InstrCount phaseLen_;
    /** First instruction of the phase the last call fell in, and that
     *  phase's child (a clock, so next() divides only on a change). */
    InstrCount phaseStart_ = 0;
    std::size_t phase_ = 0;
};

} // namespace eat::workloads

#endif // EAT_WORKLOADS_PATTERN_HH
