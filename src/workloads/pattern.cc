#include "workloads/pattern.hh"

#include <algorithm>

#include "base/logging.hh"

namespace eat::workloads
{

namespace
{

/** Align generated addresses to 8 bytes (word accesses). */
constexpr Addr
wordAlign(Addr a)
{
    return a & ~Addr{7};
}

std::vector<double>
buildCdf(const std::vector<double> &weights)
{
    eat_assert(!weights.empty(), "empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        eat_assert(w >= 0.0, "negative weight");
        total += w;
    }
    eat_assert(total > 0.0, "all weights zero");
    std::vector<double> cdf;
    cdf.reserve(weights.size());
    double acc = 0.0;
    for (double w : weights) {
        acc += w / total;
        cdf.push_back(acc);
    }
    cdf.back() = 1.0;
    return cdf;
}

std::size_t
pickFromCdf(const std::vector<double> &cdf, Rng &rng)
{
    // First bucket with cdf >= u — a forward scan, since mixture CDFs
    // hold a handful of entries and the early buckets carry most of
    // the weight. Same pick as a lower_bound over the sorted CDF.
    const double u = rng.real();
    const std::size_t n = cdf.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (u <= cdf[i])
            return i;
    }
    return n - 1;
}

} // namespace

// --------------------------------------------------------------------- Span

Span::Span(std::vector<Extent> extents) : extents_(std::move(extents))
{
    starts_.reserve(extents_.size());
    for (const auto &e : extents_) {
        eat_assert(e.bytes > 0, "empty extent in span");
        starts_.push_back(total_);
        total_ += e.bytes;
    }
    if (!extents_.empty() &&
        std::all_of(extents_.begin(), extents_.end(), [&](const Extent &e) {
            return e.bytes == extents_.front().bytes;
        })) {
        equalBytes_ = extents_.front().bytes;
    }
    if (isPowerOfTwo(equalBytes_))
        equalShift_ = static_cast<int>(floorLog2(equalBytes_));
}

Span
Span::fromRegions(const std::vector<vm::Region> &regions)
{
    std::vector<Extent> extents;
    extents.reserve(regions.size());
    for (const auto &r : regions)
        extents.push_back({r.vbase, r.bytes});
    return Span(std::move(extents));
}

std::size_t
Span::extentIndex(std::uint64_t offset) const
{
    // Extents of one size are an array: index them directly (canneal's
    // and omnetpp's windows, the set-cover spans, the stencil grids).
    if (equalShift_ >= 0)
        return static_cast<std::size_t>(offset >> equalShift_);
    if (equalBytes_ != 0)
        return static_cast<std::size_t>(offset / equalBytes_);
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), offset);
    return static_cast<std::size_t>(it - starts_.begin()) - 1;
}

Addr
Span::addrAt(std::uint64_t offset) const
{
    eat_assert(offset < total_, "span offset out of bounds");
    // Offsets arrive with the pattern's locality, so the extent that
    // served the previous call usually serves this one; look the
    // extent up only when the memo misses.
    const std::size_t last = lastExtent_;
    if (offset >= starts_[last] &&
        offset - starts_[last] < extents_[last].bytes) {
        return extents_[last].base + (offset - starts_[last]);
    }
    const std::size_t idx = extentIndex(offset);
    lastExtent_ = idx;
    return extents_[idx].base + (offset - starts_[idx]);
}

// ------------------------------------------------------- UniformRandom

UniformRandomPattern::UniformRandomPattern(Span span) : span_(std::move(span))
{
    eat_assert(!span_.empty(), "uniform pattern over empty span");
}

Addr
UniformRandomPattern::next(Rng &rng, InstrCount)
{
    return wordAlign(span_.addrAt(rng.below(span_.bytes())));
}

// ----------------------------------------------------------- WorkingSet

WorkingSetPattern::WorkingSetPattern(Span span, std::vector<WsLevel> levels)
    : span_(std::move(span)), levels_(std::move(levels))
{
    eat_assert(!span_.empty(), "working-set pattern over empty span");
    eat_assert(!levels_.empty(), "working-set pattern needs levels");
    std::vector<double> weights;
    for (auto &l : levels_) {
        l.bytes = std::min<std::uint64_t>(l.bytes, span_.bytes());
        eat_assert(l.bytes > 0, "zero-byte working-set level");
        weights.push_back(l.weight);
    }
    const auto cdf = buildCdf(weights);
    for (std::size_t i = 0; i < levels_.size(); ++i)
        levels_[i].weight = cdf[i];
}

Addr
WorkingSetPattern::next(Rng &rng, InstrCount)
{
    const double u = rng.real();
    std::size_t pick = levels_.size() - 1;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        if (u <= levels_[i].weight) {
            pick = i;
            break;
        }
    }
    return wordAlign(span_.addrAt(rng.below(levels_[pick].bytes)));
}

// ----------------------------------------------------------- Sequential

SequentialPattern::SequentialPattern(Span span, std::uint64_t strideBytes)
    : span_(std::move(span)), stride_(strideBytes)
{
    eat_assert(!span_.empty(), "sequential pattern over empty span");
    eat_assert(stride_ > 0, "zero stride");
}

Addr
SequentialPattern::next(Rng &, InstrCount)
{
    const Addr a = span_.addrAt(cursor_);
    cursor_ += stride_;
    if (cursor_ >= span_.bytes()) // wrap; a stride may exceed the span
        cursor_ %= span_.bytes();
    return wordAlign(a);
}

// -------------------------------------------------------------- Strided

StridedPattern::StridedPattern(Span span, std::uint64_t strideBytes)
    : span_(std::move(span)), stride_(strideBytes)
{
    eat_assert(!span_.empty(), "strided pattern over empty span");
    eat_assert(stride_ > 0, "zero stride");
}

Addr
StridedPattern::next(Rng &, InstrCount)
{
    std::uint64_t offset = cursor_ + phase_;
    if (offset >= span_.bytes())
        offset %= span_.bytes();
    const Addr a = span_.addrAt(offset);
    cursor_ += stride_;
    if (cursor_ >= span_.bytes()) {
        cursor_ = 0;
        phase_ = (phase_ + 64) % stride_; // next sweep, next element
    }
    return wordAlign(a);
}

// ------------------------------------------------------------ LocalWalk

LocalWalkPattern::LocalWalkPattern(Span span, std::uint64_t maxStepBytes,
                                   double jumpProbability)
    : span_(std::move(span)),
      maxStep_(maxStepBytes),
      jumpProb_(jumpProbability)
{
    eat_assert(!span_.empty(), "local-walk pattern over empty span");
    eat_assert(maxStep_ > 0, "zero step bound");
    maxStep_ = std::min<std::uint64_t>(maxStep_, span_.bytes() - 1);
    maxStep_ = std::max<std::uint64_t>(maxStep_, 1);
}

Addr
LocalWalkPattern::next(Rng &rng, InstrCount)
{
    if (rng.chance(jumpProb_)) {
        pos_ = rng.below(span_.bytes());
    } else {
        const std::uint64_t step = rng.below(2 * maxStep_ + 1);
        const std::uint64_t size = span_.bytes();
        // Signed step in [-maxStep_, +maxStep_], wrapped over the span:
        // with maxStep_ < size the sum lies in [1, 3 * size).
        pos_ += size + step - maxStep_;
        if (pos_ >= size)
            pos_ -= size;
        if (pos_ >= size)
            pos_ -= size;
    }
    return wordAlign(span_.addrAt(pos_));
}

// -------------------------------------------------------- RegionHotset

RegionHotsetPattern::RegionHotsetPattern(std::vector<vm::Region> regions,
                                         std::size_t hotRegions,
                                         double hotProb,
                                         std::uint64_t windowBytes)
    : regions_(std::move(regions)),
      hotRegions_(std::min(hotRegions, regions_.size())),
      hotProb_(hotProb),
      windowBytes_(windowBytes)
{
    eat_assert(!regions_.empty(), "region hotset over no regions");
    eat_assert(hotRegions_ >= 1, "need at least one hot region");
}

std::uint64_t
RegionHotsetPattern::windowOffset(std::size_t i, std::uint64_t regionBytes,
                                  std::uint64_t windowBytes)
{
    if (windowBytes >= regionBytes)
        return 0;
    const std::uint64_t room = regionBytes - windowBytes;
    // Page-aligned golden-ratio-ish stagger: regions are 2 MB aligned,
    // so identical offsets would alias into identical TLB sets.
    const std::uint64_t offset = (i * 37 + 11) * 4096;
    return (offset % (room + 1)) & ~std::uint64_t{4095};
}

Addr
RegionHotsetPattern::next(Rng &rng, InstrCount)
{
    const std::size_t count =
        rng.chance(hotProb_) ? hotRegions_ : regions_.size();
    const std::size_t idx = rng.below(count);
    const auto &r = regions_[idx];
    if (windowBytes_ == 0 || windowBytes_ >= r.bytes)
        return wordAlign(r.vbase + rng.below(r.bytes));
    const std::uint64_t base = windowOffset(idx, r.bytes, windowBytes_);
    return wordAlign(r.vbase + base + rng.below(windowBytes_));
}

// -------------------------------------------------------------- Mixture

MixturePattern::MixturePattern(std::vector<PatternPtr> children,
                               std::vector<double> weights)
    : children_(std::move(children)), cdf_(buildCdf(weights))
{
    eat_assert(!children_.empty(), "mixture with no children");
    eat_assert(children_.size() == cdf_.size(),
               "mixture weights/children size mismatch");
    for (const auto &c : children_)
        eat_assert(c != nullptr, "null mixture child");
}

Addr
MixturePattern::next(Rng &rng, InstrCount now)
{
    return children_[pickFromCdf(cdf_, rng)]->next(rng, now);
}

// --------------------------------------------------------------- Phased

PhasedPattern::PhasedPattern(std::vector<PatternPtr> children,
                             InstrCount phaseInstructions)
    : children_(std::move(children)), phaseLen_(phaseInstructions)
{
    eat_assert(!children_.empty(), "phased pattern with no children");
    eat_assert(phaseLen_ > 0, "zero phase length");
    for (const auto &c : children_)
        eat_assert(c != nullptr, "null phase child");
}

Addr
PhasedPattern::next(Rng &rng, InstrCount now)
{
    // The phase is (now / phaseLen_) % children; recompute it only when
    // now leaves [phaseStart_, phaseStart_ + phaseLen_). The unsigned
    // difference also catches a now below the start, so a clock that
    // moves backwards or jumps stays exact.
    if (now - phaseStart_ >= phaseLen_) {
        const InstrCount index = now / phaseLen_;
        phaseStart_ = index * phaseLen_;
        phase_ = static_cast<std::size_t>(index % children_.size());
    }
    return children_[phase_]->next(rng, now);
}

} // namespace eat::workloads
