/**
 * @file
 * The benchmark's four workloads and their measured and traced runs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One named number of a run's result. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the provenance and telemetry streams. */
    std::string scratchDir;
    /** Pinned digests ("workload seed key fnv64" lines). */
    std::string digestsPath;
    /** When set, append this run's digests here in the pinned format. */
    std::string pinOutPath;
};

/** Calls judged, calls failed, and the metrics of one run. */
struct RunReport
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** The workload names, in the order the benchmark documents them. */
const std::vector<std::string> &workloadNames();

/** Run one workload. Throws std::invalid_argument on unknown names. */
RunReport runWorkload(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
