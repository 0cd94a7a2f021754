/**
 * @file
 * Tests for Lite's lru-distance-counters, including the paper's Figure-6
 * example and the prediction-exactness property: the counters predict
 * exactly the misses a downsized TLB would have suffered on the same
 * stream (a consequence of the LRU stack property).
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/rng.hh"
#include "lite/lru_profiler.hh"
#include "tlb/set_assoc_tlb.hh"

namespace eat::lite
{
namespace
{

TEST(LruProfiler, Figure6BandMapping)
{
    // The paper's 8-way example: a hit with distance 7, 6, 4-5, or 0-3
    // from the LRU position increases counters [0], [1], [2], [3].
    EXPECT_EQ(LruDistanceProfiler::band(7, 8), 0u);
    EXPECT_EQ(LruDistanceProfiler::band(6, 8), 1u);
    EXPECT_EQ(LruDistanceProfiler::band(5, 8), 2u);
    EXPECT_EQ(LruDistanceProfiler::band(4, 8), 2u);
    EXPECT_EQ(LruDistanceProfiler::band(3, 8), 3u);
    EXPECT_EQ(LruDistanceProfiler::band(2, 8), 3u);
    EXPECT_EQ(LruDistanceProfiler::band(1, 8), 3u);
    EXPECT_EQ(LruDistanceProfiler::band(0, 8), 3u);
}

TEST(LruProfiler, FourWayBandMapping)
{
    EXPECT_EQ(LruDistanceProfiler::band(3, 4), 0u);
    EXPECT_EQ(LruDistanceProfiler::band(2, 4), 1u);
    EXPECT_EQ(LruDistanceProfiler::band(1, 4), 2u);
    EXPECT_EQ(LruDistanceProfiler::band(0, 4), 2u);
}

TEST(LruProfiler, CounterCountIsLogPlusOne)
{
    EXPECT_EQ(LruDistanceProfiler(8).counters().size(), 4u);
    EXPECT_EQ(LruDistanceProfiler(4).counters().size(), 3u);
    EXPECT_EQ(LruDistanceProfiler(1).counters().size(), 1u);
}

TEST(LruProfiler, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(LruDistanceProfiler(6), std::logic_error);
    EXPECT_THROW(LruDistanceProfiler::band(0, 3), std::logic_error);
    EXPECT_THROW(LruDistanceProfiler::band(4, 4), std::logic_error);
}

TEST(LruProfiler, LostHitsSumsBandsBelowTarget)
{
    LruDistanceProfiler p(8);
    // 10 MRU hits, 20 at distance 6, 30 at distances 4-5, 40 deep.
    for (int i = 0; i < 10; ++i)
        p.recordHit(7, 8);
    for (int i = 0; i < 20; ++i)
        p.recordHit(6, 8);
    for (int i = 0; i < 30; ++i)
        p.recordHit(4, 8);
    for (int i = 0; i < 40; ++i)
        p.recordHit(1, 8);
    EXPECT_EQ(p.totalHits(), 100u);
    EXPECT_EQ(p.lostHits(8, 8), 0u);
    EXPECT_EQ(p.lostHits(8, 4), 40u);
    EXPECT_EQ(p.lostHits(8, 2), 70u);
    EXPECT_EQ(p.lostHits(8, 1), 90u);
}

TEST(LruProfiler, TracksReducedActiveWays)
{
    LruDistanceProfiler p(8);
    // With only 2 active ways, distances are in [0, 2).
    p.recordHit(1, 2); // MRU -> band 0
    p.recordHit(0, 2); // band 1
    EXPECT_EQ(p.lostHits(2, 1), 1u);
    EXPECT_EQ(p.lostHits(2, 2), 0u);
}

TEST(LruProfiler, ResetClears)
{
    LruDistanceProfiler p(4);
    p.recordHit(0, 4);
    p.reset();
    EXPECT_EQ(p.totalHits(), 0u);
    EXPECT_EQ(p.lostHits(4, 1), 0u);
}

/**
 * Property: for any access stream, actualMisses(full) +
 * lostHits(full -> w) == actualMisses(w-way TLB) on the same stream.
 * This exactness is what lets Lite's decision algorithm predict the
 * potential MPKI of a smaller configuration without simulating it.
 */
class ProfilerExactnessTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(ProfilerExactnessTest, PredictsDownsizedMisses)
{
    const unsigned sets = std::get<0>(GetParam());
    const unsigned targetWays = std::get<1>(GetParam());
    constexpr unsigned kFullWays = 4;

    tlb::SetAssocTlb full("full", sets * kFullWays, kFullWays, 12);
    tlb::SetAssocTlb small("small", sets * targetWays, targetWays, 12);
    LruDistanceProfiler profiler(kFullWays);

    Rng rng(sets * 131 + targetWays);
    std::uint64_t fullMisses = 0;
    std::uint64_t smallMisses = 0;
    for (int i = 0; i < 6000; ++i) {
        // Mix of hot pages and a uniform tail.
        const Addr page = rng.chance(0.7) ? rng.below(sets * 3)
                                          : rng.below(sets * 40);
        const Addr vaddr = page << 12;

        auto res = full.lookup(vaddr, 0, /*withDistance=*/true);
        if (res.hit) {
            profiler.recordHit(res.lruDistance, kFullWays);
        } else {
            ++fullMisses;
            full.fill(tlb::makePageEntry(vaddr, 0x1000,
                                         vm::PageSize::Size4K));
        }

        if (small.lookup(vaddr).hit) {
        } else {
            ++smallMisses;
            small.fill(tlb::makePageEntry(vaddr, 0x1000,
                                          vm::PageSize::Size4K));
        }
    }

    EXPECT_EQ(fullMisses + profiler.lostHits(kFullWays, targetWays),
              smallMisses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ProfilerExactnessTest,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(1u, 2u, 4u)));

} // namespace
} // namespace eat::lite
