/**
 * @file
 * Configuration types of the L3 translation tier.
 *
 * The tier adds a third translation level behind the L2 TLBs and ahead
 * of the page walker, in one of two substrates:
 *
 *  - `cache`: a Victima-style L3 TLB that parks translations in
 *    modeled last-level-cache lines (CacheTlb + CacheCapacityModel);
 *  - `dram`: a large set-associative in-DRAM TLB fronted by a small
 *    SRAM tag cache (DramTlb), per the die-stacked DRAM-cache study.
 *
 * Split into its own header so core/config.hh can embed the knobs
 * without pulling in the structures.
 */

#ifndef EAT_L3_L3_CONFIG_HH
#define EAT_L3_L3_CONFIG_HH

#include <cstdint>
#include <string_view>

#include "base/status.hh"
#include "base/types.hh"

namespace eat::l3
{

/** Which substrate (if any) backs the L3 translation tier. */
enum class L3Mode
{
    None,  ///< no third level: L2 miss goes straight to the walker
    Cache, ///< cache-resident TLB in modeled LLC capacity (Victima)
    Dram,  ///< in-DRAM TLB with an SRAM tag cache (die-stacked study)
};

/** Parse the CLI and scenario token "none", "cache" or "dram". */
Result<L3Mode> l3ModeFromName(std::string_view name);

/** When a walked translation is inserted into the L3 tier. */
enum class L3InsertPolicy
{
    WalkFill,   ///< every completed page walk fills the L3
    PtePromote, ///< fill only during L2-TLB-miss streaks (hot PTEs)
};

std::string_view l3InsertPolicyName(L3InsertPolicy policy);

/** Parse an l3InsertPolicyName() token ("walk", "promote"). */
Result<L3InsertPolicy> l3InsertPolicyFromName(std::string_view name);

/** Geometry of the modeled last-level cache the CacheTlb lives in. */
struct CacheCapacityConfig
{
    std::uint64_t capacityBytes = 8ull << 20; ///< 8 MiB LLC
    unsigned ways = 16;
    unsigned lineBytes = 64;

    std::uint64_t lines() const { return capacityBytes / lineBytes; }
};

/** The cache-resident L3 TLB (--l3=cache). */
struct CacheTlbConfig
{
    /** Translation entries parked in LLC lines. 64 Ki entries at 8
     *  PTEs per 64 B line occupy 8 Ki lines — 1/16 of the 8 MiB LLC. */
    unsigned entries = 65536;
    unsigned ways = 8;

    /** PTEs packed per LLC line (64 B line / 8 B PTE). */
    unsigned ptesPerLine = 8;

    /** LLC access latency charged per L3 probe (well under the 50-cycle
     *  walk it short-circuits). */
    Cycles probeLatency = 30;

    L3InsertPolicy policy = L3InsertPolicy::WalkFill;

    /** PtePromote: consecutive L2 misses required before a walked
     *  translation is deemed hot enough to park in the LLC. */
    unsigned promoteStreak = 2;

    CacheCapacityConfig llc{};
};

/** The in-DRAM L3 TLB (--l3=dram). */
struct DramTlbConfig
{
    /** Entries in die-stacked DRAM; capacity is nearly free there, so
     *  the default reach is 1 GiB of 4 KB mappings. */
    unsigned entries = 262144;
    unsigned ways = 16;

    /** Direct-mapped SRAM tag cache over the DRAM TLB's sets; a hit
     *  answers "present?" without touching DRAM on misses. */
    unsigned tagCacheEntries = 4096;

    /** SRAM tag-cache probe latency (charged on every L3 probe). */
    Cycles tagLatency = 2;

    /** DRAM array access latency (charged only when DRAM is touched). */
    Cycles dramLatency = 90;

    /** Per-access DRAM row/column energy (pJ); far above any SRAM
     *  probe, which is why the tag cache earns its keep. */
    double dramReadPj = 2200.0;
    double dramWritePj = 2600.0;
};

} // namespace eat::l3

#endif // EAT_L3_L3_CONFIG_HH
