/**
 * @file
 * Tests for the set-associative TLB: lookup/fill/LRU semantics, the
 * LRU-distance reporting Lite depends on, way-disabling, and the LRU
 * inclusion property that makes Lite's miss predictions exact.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/rng.hh"
#include "tlb/fully_assoc_tlb.hh"
#include "tlb/set_assoc_tlb.hh"

namespace eat::tlb
{
namespace
{

using vm::PageSize;

TlbEntry
entry4K(Addr vpnIndex, Addr pbase = 0x100000)
{
    return makePageEntry(vpnIndex << 12, pbase, PageSize::Size4K);
}

TEST(SetAssocTlb, Geometry)
{
    SetAssocTlb t("t", 64, 4, 12);
    EXPECT_EQ(t.sets(), 16u);
    EXPECT_EQ(t.ways(), 4u);
    EXPECT_EQ(t.activeWays(), 4u);
    EXPECT_EQ(t.entries(), 64u);
    EXPECT_EQ(t.activeEntries(), 64u);
    EXPECT_FALSE(t.fullyAssociative());
}

TEST(SetAssocTlb, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocTlb("t", 64, 0, 12), std::logic_error);
    EXPECT_THROW(SetAssocTlb("t", 60, 4, 12), std::logic_error);
    EXPECT_THROW(SetAssocTlb("t", 48, 4, 12), std::logic_error); // 12 sets
}

TEST(SetAssocTlb, MissThenFillThenHit)
{
    SetAssocTlb t("t", 64, 4, 12);
    EXPECT_FALSE(t.lookup(0x1000).hit);
    t.fill(entry4K(1));
    auto res = t.lookup(0x1234);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.entry.paddr(0x1234), 0x100234u);
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 1u);
    EXPECT_EQ(t.fills(), 1u);
}

TEST(SetAssocTlb, EvictsTrueLru)
{
    SetAssocTlb t("t", 64, 4, 12);
    // Five pages mapping to set 0 (VPNs 0, 16, 32, 48, 64).
    for (Addr i = 0; i < 4; ++i)
        t.fill(entry4K(i * 16));
    // Touch all but VPN 16, making it the LRU.
    (void)t.lookup(0);
    (void)t.lookup(32 << 12);
    (void)t.lookup(48 << 12);
    t.fill(entry4K(64)); // evicts VPN 16
    EXPECT_TRUE(t.probe(0));
    EXPECT_FALSE(t.probe(16ull << 12));
    EXPECT_TRUE(t.probe(32ull << 12));
    EXPECT_TRUE(t.probe(64ull << 12));
}

TEST(SetAssocTlb, RefillUpdatesExistingEntry)
{
    SetAssocTlb t("t", 64, 4, 12);
    t.fill(entry4K(1, 0x100000));
    t.fill(entry4K(1, 0x200000));
    EXPECT_EQ(t.validCount(), 1u);
    EXPECT_EQ(t.lookup(0x1000).entry.pbase, 0x200000u);
}

TEST(SetAssocTlb, FillPrefersInvalidSlotOverEviction)
{
    SetAssocTlb t("t", 64, 4, 12);
    // Two valid entries in set 0, two invalid ways. Touch both so
    // neither is obviously "oldest", then fill: nothing may be
    // evicted — the single-pass victim scan must land on an invalid
    // slot, not the LRU entry.
    t.fill(entry4K(0));
    t.fill(entry4K(16));
    (void)t.lookup(16ull << 12);
    (void)t.lookup(0);
    t.fill(entry4K(32));
    EXPECT_EQ(t.validCount(), 3u);
    EXPECT_TRUE(t.probe(0));
    EXPECT_TRUE(t.probe(16ull << 12));
    EXPECT_TRUE(t.probe(32ull << 12));
}

TEST(SetAssocTlb, LogActiveWaysTracksResizes)
{
    SetAssocTlb t("t", 64, 4, 12);
    EXPECT_EQ(t.logActiveWays(), 2u);
    t.setActiveWays(1);
    EXPECT_EQ(t.logActiveWays(), 0u);
    t.setActiveWays(4);
    EXPECT_EQ(t.logActiveWays(), 2u);
    // forceActiveWays (the glitch-injection hook) can set a non-power-
    // of-two; the cache must follow floorLog2 exactly.
    t.forceActiveWays(3);
    EXPECT_EQ(t.logActiveWays(), 1u);
}

TEST(SetAssocTlb, LruDistanceReporting)
{
    SetAssocTlb t("t", 64, 4, 12);
    for (Addr i = 0; i < 4; ++i)
        t.fill(entry4K(i * 16)); // all in set 0; VPN 48 is MRU
    // MRU hit: distance 3.
    EXPECT_EQ(t.lookup(48ull << 12).lruDistance, 3u);
    // Now 48 is still MRU; LRU is 0: distance 0.
    EXPECT_EQ(t.lookup(0).lruDistance, 0u);
    // 0 became MRU. 16 is now LRU: distance 0; 32 is second: 1.
    EXPECT_EQ(t.lookup(32ull << 12).lruDistance, 1u);
}

TEST(SetAssocTlb, DistanceCountsInvalidWaysAsLru)
{
    SetAssocTlb t("t", 64, 4, 12);
    t.fill(entry4K(0));
    // Only one valid entry in a 4-way set: it is at the MRU position
    // (distance 3), with the three invalid ways below it.
    EXPECT_EQ(t.lookup(0).lruDistance, 3u);
}

TEST(SetAssocTlb, WayDisablingInvalidatesVictims)
{
    SetAssocTlb t("t", 64, 4, 12);
    for (Addr i = 0; i < 4; ++i)
        t.fill(entry4K(i * 16));
    EXPECT_EQ(t.validCount(), 4u);
    t.setActiveWays(1);
    EXPECT_EQ(t.activeWays(), 1u);
    EXPECT_EQ(t.activeEntries(), 16u);
    EXPECT_EQ(t.validCount(), 1u); // ways 1-3 invalidated
    EXPECT_EQ(t.resizes(), 1u);
}

TEST(SetAssocTlb, ReenabledWaysHoldNoStaleEntries)
{
    SetAssocTlb t("t", 64, 4, 12);
    for (Addr i = 0; i < 4; ++i)
        t.fill(entry4K(i * 16));
    t.setActiveWays(1);
    t.setActiveWays(4);
    // Whatever survived way 0 may hit; the disabled ways must not
    // resurrect their old translations (consistency, paper §4.2.3).
    unsigned hits = 0;
    for (Addr i = 0; i < 4; ++i)
        hits += t.probe((i * 16) << 12) ? 1 : 0;
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(t.validCount(), 1u);
}

TEST(SetAssocTlb, DisabledWaysAreNotSearchedOrFilled)
{
    SetAssocTlb t("t", 64, 4, 12);
    t.setActiveWays(2);
    for (Addr i = 0; i < 4; ++i)
        t.fill(entry4K(i * 16));
    // Only 2 of the 4 set-0 pages can be resident.
    EXPECT_EQ(t.validCount(), 2u);
    unsigned hits = 0;
    for (Addr i = 0; i < 4; ++i)
        hits += t.probe((i * 16) << 12) ? 1 : 0;
    EXPECT_EQ(hits, 2u);
}

TEST(SetAssocTlb, SetActiveWaysValidation)
{
    SetAssocTlb t("t", 64, 4, 12);
    EXPECT_THROW(t.setActiveWays(0), std::logic_error);
    EXPECT_THROW(t.setActiveWays(3), std::logic_error);
    EXPECT_THROW(t.setActiveWays(8), std::logic_error);
    t.setActiveWays(4); // no-op does not count as a resize
    EXPECT_EQ(t.resizes(), 0u);
}

TEST(SetAssocTlb, DistanceRangeShrinksWithActiveWays)
{
    SetAssocTlb t("t", 64, 4, 12);
    t.setActiveWays(2);
    t.fill(entry4K(0));
    t.fill(entry4K(16));
    EXPECT_EQ(t.lookup(16ull << 12).lruDistance, 1u); // MRU of 2 ways
    EXPECT_EQ(t.lookup(0).lruDistance, 0u);
}

TEST(SetAssocTlb, InvalidateAllClearsEverything)
{
    SetAssocTlb t("t", 64, 4, 12);
    for (Addr i = 0; i < 32; ++i)
        t.fill(entry4K(i));
    t.invalidateAll();
    EXPECT_EQ(t.validCount(), 0u);
    EXPECT_FALSE(t.probe(0));
}

TEST(SetAssocTlb, MixedSizeLookupWithIndexShift)
{
    // A TLB_PP-style mixed TLB: 4 KB entries index with shift 12,
    // 2 MB entries with shift 21; the tag match uses each entry's own
    // covered region.
    SetAssocTlb t("mixed", 64, 4, 12);
    t.fill(makePageEntry(0x1000, 0x100000, PageSize::Size4K));
    t.fill(makePageEntry(64_MiB, 256_MiB, PageSize::Size2M));

    EXPECT_TRUE(t.lookupWithShift(0x1234, 12).hit);
    auto big = t.lookupWithShift(64_MiB + 12345, 21);
    ASSERT_TRUE(big.hit);
    EXPECT_EQ(big.entry.paddr(64_MiB + 12345), 256_MiB + 12345);
    // Indexing the 2 MB address with the 4 KB shift looks in the wrong
    // set and misses (that is exactly why TLB_Pred needs a predictor).
    EXPECT_FALSE(t.lookupWithShift(64_MiB + 12345, 12).hit);
}

TEST(SetAssocTlb, CountsHitsOnPpnFlippedEntries)
{
    SetAssocTlb t("t", 64, 4, 12);
    t.fill(entry4K(1));
    const std::uint64_t bit13 = std::uint64_t{1} << 32; // PPN bit 13

    // A flip is counted once per hit that returns it, not when it lands.
    ASSERT_TRUE(t.corruptRandomEntry(bit13, /*flipTag=*/false));
    EXPECT_EQ(t.ppnFlipsConsumed(), 0u);
    EXPECT_EQ(t.lookup(0x1000).entry.pbase, 0x102000u);
    EXPECT_EQ(t.lookup(0x1000).entry.pbase, 0x102000u);
    EXPECT_EQ(t.ppnFlipsConsumed(), 2u);

    // A second flip of the same bit restores the entry...
    ASSERT_TRUE(t.corruptRandomEntry(bit13, /*flipTag=*/false));
    EXPECT_TRUE(t.lookup(0x1000).hit);
    EXPECT_EQ(t.ppnFlipsConsumed(), 2u);

    // ...and a refill replaces a corrupted one.
    ASSERT_TRUE(t.corruptRandomEntry(0, /*flipTag=*/false));
    t.fill(entry4K(1));
    EXPECT_EQ(t.lookup(0x1000).entry.pbase, 0x100000u);
    EXPECT_EQ(t.ppnFlipsConsumed(), 2u);
}

TEST(FullyAssocTlb, IsOneSetOfAllWays)
{
    FullyAssocTlb t("fa", 4, 30);
    EXPECT_TRUE(t.fullyAssociative());
    EXPECT_EQ(t.sets(), 1u);
    EXPECT_EQ(t.ways(), 4u);
    // Entries with wildly different addresses coexist in the one set.
    for (Addr i = 0; i < 4; ++i)
        t.fill(TlbEntry{i * 8_GiB, i * 16_GiB, PageSize::Size1G, 30});
    EXPECT_EQ(t.validCount(), 4u);
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(t.probe(i * 8_GiB + 123));
    // LRU replacement across the whole structure.
    (void)t.lookup(0);
    t.fill(TlbEntry{40_GiB, 80_GiB, PageSize::Size1G, 30});
    EXPECT_TRUE(t.probe(0));
    EXPECT_FALSE(t.probe(8_GiB)); // entry 1 was LRU
}

/**
 * Property (LRU inclusion / stack property): on any access stream, the
 * hits of a w-way TLB are a subset of the hits of a 2w-way TLB with
 * the same sets. This is what makes the Figure-6 counter predictions
 * exact.
 */
class LruInclusionTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LruInclusionTest, HitsAreNested)
{
    const unsigned sets = GetParam();
    Rng rng(sets * 977 + 13);
    std::vector<SetAssocTlb> tlbs;
    for (unsigned ways : {1u, 2u, 4u, 8u})
        tlbs.emplace_back("t", sets * ways, ways, 12);

    for (int i = 0; i < 4000; ++i) {
        const Addr vaddr = rng.below(sets * 24) << 12; // ~24 pages/set
        std::vector<bool> hit;
        for (auto &t : tlbs) {
            auto res = t.lookup(vaddr);
            hit.push_back(res.hit);
            if (!res.hit)
                t.fill(entry4K(vaddr >> 12));
        }
        for (std::size_t w = 0; w + 1 < hit.size(); ++w) {
            ASSERT_LE(hit[w], hit[w + 1])
                << "inclusion violated at access " << i << " for "
                << (1u << w) << " ways";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, LruInclusionTest,
                         ::testing::Values(1, 2, 4, 16, 64));

} // namespace
} // namespace eat::tlb
