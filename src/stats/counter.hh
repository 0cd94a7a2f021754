/**
 * @file
 * The MPKI helper shared by Lite, the MMU statistics and the reports.
 */

#ifndef EAT_STATS_COUNTER_HH
#define EAT_STATS_COUNTER_HH

#include <cstdint>

namespace eat::stats
{

/** Misses per kilo-instruction given raw miss and instruction counts. */
inline double
mpki(std::uint64_t misses, std::uint64_t instructions)
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(misses) * 1000.0 /
           static_cast<double>(instructions);
}

} // namespace eat::stats

#endif // EAT_STATS_COUNTER_HH
