/**
 * @file
 * Tests for the range TLB (fully associative cache of range
 * translations).
 */

#include <gtest/gtest.h>

#include "tlb/range_tlb.hh"

namespace eat::tlb
{
namespace
{

using vm::RangeTranslation;

TEST(RangeTlb, MissThenFillThenHit)
{
    RangeTlb t("rt", 4);
    EXPECT_FALSE(t.lookup(0x5000).has_value());
    t.fill({0x4000, 0x8000, 0x100000});
    auto r = t.lookup(0x5000);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->paddr(0x5000), 0x101000u);
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 1u);
}

TEST(RangeTlb, BoundaryConditions)
{
    RangeTlb t("rt", 4);
    t.fill({0x4000, 0x8000, 0x100000});
    EXPECT_TRUE(t.probe(0x4000));  // inclusive base
    EXPECT_TRUE(t.probe(0x7fff));
    EXPECT_FALSE(t.probe(0x8000)); // exclusive limit
    EXPECT_FALSE(t.probe(0x3fff));
}

TEST(RangeTlb, ArbitrarilyLargeEntry)
{
    RangeTlb t("rt", 1);
    t.fill({0, 1600_MiB, 4_GiB});
    EXPECT_TRUE(t.probe(1599_MiB));
    EXPECT_EQ(t.lookup(1_GiB)->paddr(1_GiB), 5_GiB);
}

TEST(RangeTlb, LruReplacement)
{
    RangeTlb t("rt", 2);
    t.fill({0x0, 0x1000, 0x100000});
    t.fill({0x10000, 0x11000, 0x200000});
    (void)t.lookup(0x500); // touch the first entry
    t.fill({0x20000, 0x21000, 0x300000});
    EXPECT_TRUE(t.probe(0x500));
    EXPECT_FALSE(t.probe(0x10500)); // the LRU victim
    EXPECT_TRUE(t.probe(0x20500));
}

TEST(RangeTlb, DuplicateFillOnlyTouches)
{
    RangeTlb t("rt", 2);
    t.fill({0x0, 0x1000, 0x100000});
    t.fill({0x0, 0x1000, 0x100000});
    EXPECT_EQ(t.validCount(), 1u);
    EXPECT_EQ(t.fills(), 1u);
}

TEST(RangeTlb, InvalidateAll)
{
    RangeTlb t("rt", 4);
    t.fill({0x0, 0x1000, 0x100000});
    t.invalidateAll();
    EXPECT_EQ(t.validCount(), 0u);
    EXPECT_FALSE(t.probe(0x500));
}

TEST(RangeTlb, RejectsZeroEntries)
{
    EXPECT_THROW(RangeTlb("rt", 0), std::logic_error);
}

TEST(RangeTlb, CountsHitsOnPpnFlippedEntries)
{
    RangeTlb t("rt", 4);
    t.fill({0x10000, 0x20000, 0x100000});

    ASSERT_TRUE(t.corruptRandomEntry(0, /*flipTag=*/false)); // bit 12
    EXPECT_EQ(t.ppnFlipsConsumed(), 0u);
    EXPECT_EQ(t.lookup(0x10000)->pbase, 0x101000u);
    EXPECT_EQ(t.ppnFlipsConsumed(), 1u);

    // Flipping the same bit again restores the entry.
    ASSERT_TRUE(t.corruptRandomEntry(0, /*flipTag=*/false));
    EXPECT_EQ(t.lookup(0x10000)->pbase, 0x100000u);
    EXPECT_EQ(t.ppnFlipsConsumed(), 1u);

    // A vlimit (tag) flip is not a ppn-flip.
    ASSERT_TRUE(t.corruptRandomEntry(0, /*flipTag=*/true));
    EXPECT_TRUE(t.lookup(0x10000).has_value());
    EXPECT_EQ(t.ppnFlipsConsumed(), 1u);
}

/** ASID tags keep address spaces apart: a range cached for one ASID
 *  must not serve another ASID's lookups of the same addresses. */
TEST(RangeTlb, AsidBoundaries)
{
    RangeTlb t("rt", 4);
    t.fill({0x10000, 0x20000, 0x100000}, 1);
    t.fill({0x30000, 0x40000, 0x200000}, 2);

    // ASID 2 at an address only ASID 1 maps: must miss.
    EXPECT_FALSE(t.lookup(0x10000, 2).has_value());
    // ASID 1 at an address only ASID 2 maps: must miss.
    EXPECT_FALSE(t.lookup(0x30000, 1).has_value());
    // Each ASID still hits its own range, including at vbase.
    EXPECT_TRUE(t.lookup(0x10000, 1).has_value());
    EXPECT_TRUE(t.lookup(0x30000, 2).has_value());
    // Below every cached range: a miss.
    EXPECT_FALSE(t.lookup(0x0, 1).has_value());
}

} // namespace
} // namespace eat::tlb
