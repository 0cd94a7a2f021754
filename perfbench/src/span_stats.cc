#include "span_stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace perfbench
{

double
tailQuantileFor(std::uint64_t samples)
{
    // In per-mille, so the comparison is exact.
    for (const std::uint64_t permille : {999u, 990u, 900u}) {
        if (samples * (1000 - permille) >= 10'000)
            return static_cast<double>(permille) / 1000.0;
    }
    return 0.5;
}

namespace
{

/** 1-based nearest rank of quantile @p q among @p n samples. */
std::uint64_t
rankOf(double q, std::uint64_t n)
{
    const auto rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::uint64_t>(rank, 1, n);
}

} // namespace

unsigned
SpanHistogram::binOf(std::uint64_t ns)
{
    if (ns < kExact)
        return static_cast<unsigned>(ns);
    const unsigned octave = std::bit_width(ns) - 1; // >= 10
    const unsigned sub =
        static_cast<unsigned>(ns >> (octave - kSubBits)) &
        ((1u << kSubBits) - 1);
    const unsigned bin =
        kExact + ((octave - 10) << kSubBits) + sub;
    return std::min(bin, kBins - 1);
}

double
SpanHistogram::lowerEdge(unsigned bin)
{
    if (bin < kExact)
        return bin;
    const unsigned octave = ((bin - kExact) >> kSubBits) + 10;
    const unsigned sub = (bin - kExact) & ((1u << kSubBits) - 1);
    return std::ldexp(1.0, static_cast<int>(octave)) +
           sub * std::ldexp(1.0, static_cast<int>(octave - kSubBits));
}

double
SpanHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const std::uint64_t rank = rankOf(q, count_);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBins; ++i) {
        seen += bins_[i];
        if (seen >= rank)
            return lowerEdge(i);
    }
    return lowerEdge(kBins - 1);
}

double
SpanSamples::sum() const
{
    return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double
SpanSamples::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[rankOf(q, sorted.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

} // namespace perfbench
