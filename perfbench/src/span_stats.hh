/**
 * @file
 * In-memory span statistics for the traced benchmark run.
 *
 * A traced run times millions of calls into the simulator's layers;
 * keeping every span would cost more memory than the simulator itself,
 * so per-operation spans go into a fixed-size log-linear histogram
 * (exact below 1 us, 64 sub-buckets per octave above) and set-up spans,
 * of which there are only tens per run, are kept whole.
 */

#ifndef PERFBENCH_SPAN_STATS_HH
#define PERFBENCH_SPAN_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * The tail quantile the guide asks for: the highest of p99.9, p99 and
 * p90 that still has at least ten samples beyond it, else the median.
 */
double tailQuantileFor(std::uint64_t samples);

/** Histogram of span durations in nanoseconds. */
class SpanHistogram
{
  public:
    void
    add(std::uint64_t ns)
    {
        ++bins_[binOf(ns)];
        ++count_;
        sumNs_ += ns;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sumNs() const { return sumNs_; }

    /** Nearest-rank quantile in ns (0 when empty); the value is the
     *  lower edge of the bucket holding that rank. */
    double quantile(double q) const;

  private:
    static constexpr unsigned kExact = 1024;
    static constexpr unsigned kSubBits = 6;
    static constexpr unsigned kOctaves = 40;
    static constexpr unsigned kBins = kExact + (kOctaves << kSubBits);

    static unsigned binOf(std::uint64_t ns);
    static double lowerEdge(unsigned bin);

    std::array<std::uint64_t, kBins> bins_{};
    std::uint64_t count_ = 0;
    std::uint64_t sumNs_ = 0;
};

/** Every sample of a rare span (set-up stages), in seconds. */
class SpanSamples
{
  public:
    void add(double seconds) { samples_.push_back(seconds); }
    std::uint64_t count() const { return samples_.size(); }
    double sum() const;
    /** Nearest-rank quantile (0 when empty). */
    double quantile(double q) const;

  private:
    std::vector<double> samples_;
};

/** Median of @p values (mean of the middle pair; 0 when empty). */
double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_SPAN_STATS_HH
