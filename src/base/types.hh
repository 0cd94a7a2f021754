/**
 * @file
 * Fundamental scalar types and unit helpers shared by all eat modules.
 */

#ifndef EAT_BASE_TYPES_HH
#define EAT_BASE_TYPES_HH

#include <cstdint>

namespace eat
{

/** A virtual or physical byte address. */
using Addr = std::uint64_t;

/** A count of processor cycles. */
using Cycles = std::uint64_t;

/** A count of retired instructions. */
using InstrCount = std::uint64_t;

/** Dynamic energy in picojoules. */
using PicoJoules = double;

/** Leakage power in milliwatts. */
using MilliWatts = double;

constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}

constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}

constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

/** @return true iff @p v is a (nonzero) power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); @p v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** @return @p v rounded down to a multiple of @p align (a power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** @return @p v rounded up to a multiple of @p align (a power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

} // namespace eat

#endif // EAT_BASE_TYPES_HH
