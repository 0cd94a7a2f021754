/**
 * @file
 * Light last-level-cache capacity model backing the cache-resident TLB.
 *
 * The CacheTlb does not get free storage: every line it parks
 * translations in is a line the LLC cannot hold program data in. This
 * model makes that cost explicit and charges it honestly:
 *
 *  - per-access dynamic energy is the CACTI-Lite estimate of one access
 *    to the reserved *way partition* (the tier claims whole LLC ways,
 *    so a probe drives the tag match and line readout of the reserved
 *    ways only — with the default geometry, one way of sixteen — not
 *    the full 16-way array);
 *  - leakage is charged for the reserved share of the LLC capacity for
 *    the entire run (reserved-share model: the tier claims its maximum
 *    footprint up front and never gives it back, a deliberately
 *    conservative assumption that keeps leakage constant, so the
 *    MMU's leakage stays exact although `Mmu::refreshLeakage()` runs
 *    only in the constructor, at the static-mask lift and at Lite's
 *    interval decision).
 */

#ifndef EAT_L3_CACHE_CAPACITY_MODEL_HH
#define EAT_L3_CACHE_CAPACITY_MODEL_HH

#include <cstdint>

#include "base/types.hh"
#include "energy/coefficients.hh"
#include "l3/l3_config.hh"

namespace eat::energy
{
class CactiLite;
}

namespace eat::l3
{

/** Energy accounting of TLB-resident LLC lines. */
class CacheCapacityModel
{
  public:
    /**
     * @param cfg LLC geometry.
     * @param cacti coefficient source (read during construction only).
     * @param reservedLines LLC lines the TLB tier may claim at most;
     *        leakage is charged for this share unconditionally.
     */
    CacheCapacityModel(const CacheCapacityConfig &cfg,
                       const energy::CactiLite &cacti,
                       std::uint64_t reservedLines);

    /** One access to the reserved way partition (read or write) plus
     *  the reserved share's leakage, in EnergyCoefficients form for the
     *  MMU's meters. */
    const energy::EnergyCoefficients &
    accessCoefficients() const
    {
        return coeff_;
    }

    std::uint64_t totalLines() const { return cfg_.lines(); }
    std::uint64_t reservedLines() const { return reservedLines_; }

    /** Whole LLC ways the reserved lines occupy (ceil; >= 1). */
    unsigned reservedWays() const { return reservedWays_; }

    /** Fraction of LLC capacity the tier reserves (leakage share and
     *  the data capacity ceded to translations). */
    double
    reservedFraction() const
    {
        return double(reservedLines_) / double(totalLines());
    }

  private:
    CacheCapacityConfig cfg_;
    std::uint64_t reservedLines_;
    unsigned reservedWays_ = 1;
    energy::EnergyCoefficients coeff_{};
};

} // namespace eat::l3

#endif // EAT_L3_CACHE_CAPACITY_MODEL_HH
