#include "l3/cache_capacity_model.hh"

#include "base/logging.hh"
#include "energy/cacti_lite.hh"

namespace eat::l3
{

CacheCapacityModel::CacheCapacityModel(const CacheCapacityConfig &cfg,
                                       const energy::CactiLite &cacti,
                                       std::uint64_t reservedLines)
    : cfg_(cfg), reservedLines_(reservedLines)
{
    eat_assert(cfg_.lineBytes > 0 && cfg_.capacityBytes % cfg_.lineBytes == 0,
               "LLC capacity must be a whole number of lines");
    eat_assert(reservedLines_ <= totalLines(),
               "TLB tier reserves more lines than the LLC has");

    // The reserved lines claim whole LLC ways (way-partitioning, as the
    // L3-TLB proposals do): 8 Ki reserved lines of a 16-way / 8 Ki-set
    // LLC are exactly one way across every set. A probe drives the tag
    // match and line readout of the reserved ways only, so its dynamic
    // energy is an access to that partition's geometry, not to the full
    // 16-way array.
    const std::uint64_t sets = totalLines() / cfg_.ways;
    std::uint64_t partWays = (reservedLines_ + sets - 1) / sets;
    if (partWays == 0)
        partWays = 1;
    if (partWays > cfg_.ways)
        partWays = cfg_.ways;
    reservedWays_ = static_cast<unsigned>(partWays);
    const energy::EnergyCoefficients part = cacti.estimate(
        energy::StructClass::L2Cache,
        static_cast<unsigned>(sets * partWays), reservedWays_);
    coeff_.read = part.read;
    coeff_.write = part.write;

    // Leakage stays capacity-proportional against the whole LLC: the
    // reserved share leaks whether or not it is ever probed.
    const energy::EnergyCoefficients llc = cacti.estimate(
        energy::StructClass::L2Cache,
        static_cast<unsigned>(totalLines()), cfg_.ways);
    coeff_.leakage = llc.leakage * reservedFraction();
}

} // namespace eat::l3
