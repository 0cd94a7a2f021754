/**
 * @file
 * Tests for the set-associative TLB: lookup/fill/LRU semantics, the
 * LRU-distance reporting Lite depends on, way-disabling, and the LRU
 * inclusion property that makes Lite's miss predictions exact.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rng.hh"
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
    EXPECT_EQ(t.lookup(48ull << 12, 0, /*withDistance=*/true).lruDistance, 3u);
    // Now 48 is still MRU; LRU is 0: distance 0.
    EXPECT_EQ(t.lookup(0, 0, /*withDistance=*/true).lruDistance, 0u);
    // 0 became MRU. 16 is now LRU: distance 0; 32 is second: 1.
    EXPECT_EQ(t.lookup(32ull << 12, 0, /*withDistance=*/true).lruDistance, 1u);
}

TEST(SetAssocTlb, DistanceCountsInvalidWaysAsLru)
{
    SetAssocTlb t("t", 64, 4, 12);
    t.fill(entry4K(0));
    // Only one valid entry in a 4-way set: it is at the MRU position
    // (distance 3), with the three invalid ways below it.
    EXPECT_EQ(t.lookup(0, 0, /*withDistance=*/true).lruDistance, 3u);
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
    EXPECT_EQ(t.lookup(16ull << 12, 0, /*withDistance=*/true).lruDistance,
              1u); // MRU of 2 ways
    EXPECT_EQ(t.lookup(0, 0, /*withDistance=*/true).lruDistance, 0u);
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

TEST(SetAssocTlb, TagFlipMovesTheEntryToItsAlias)
{
    // 16 sets: a tag flip picks bit 12 + 4 + (rnd >> 32) % 4, here 18.
    // The entry stays in its set, keeps its ASID and PPN, and now
    // claims the aliased page instead of its own.
    SetAssocTlb t("t", 64, 4, 12);
    t.fill(makePageEntry(0x5000, 0x300000, PageSize::Size4K, 2));
    const Addr alias = 0x5000 ^ (Addr{1} << 18);
    ASSERT_TRUE(t.corruptRandomEntry(std::uint64_t{2} << 32,
                                     /*flipTag=*/true));

    EXPECT_FALSE(t.probe(0x5000, 2));
    EXPECT_FALSE(t.lookup(0x5123, 2).hit);
    EXPECT_FALSE(t.lookup(alias + 0x123, 0).hit);
    const auto res = t.lookup(alias + 0x123, 2);
    ASSERT_TRUE(res.hit);
    EXPECT_EQ(res.entry.vbase, alias);
    EXPECT_EQ(res.entry.pbase, 0x300000u);
    EXPECT_EQ(res.entry.asid, 2u);
    EXPECT_EQ(t.ppnFlipsConsumed(), 0u);

    // A fill of the original page is no refill of the flipped slot.
    EXPECT_FALSE(t.fill(makePageEntry(0x5000, 0x300000, PageSize::Size4K,
                                      2)));
    EXPECT_EQ(t.validCount(), 2u);
    EXPECT_TRUE(t.probe(0x5000, 2));
    EXPECT_TRUE(t.probe(alias, 2));
}

TEST(FullyAssocTlb, IsOneSetOfAllWays)
{
    SetAssocTlb t("fa", 4, 4, 30);
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

/**
 * A plain reference model of SetAssocTlb: each slot keeps its valid
 * bit, entry (ASID, base, shift) and recency stamp explicitly, and
 * every operation is a linear scan written from the contract in
 * set_assoc_tlb.hh — no cached tags, fused keys or hit masks.
 */
class ReferenceTlb
{
  public:
    struct Lookup
    {
        bool hit = false;
        unsigned distance = 0;
        TlbEntry entry{};
    };

    ReferenceTlb(unsigned entries, unsigned ways, unsigned shift)
        : sets_(entries / ways), ways_(ways), activeWays_(ways),
          shift_(shift), slots_(entries)
    {
    }

    Lookup
    lookup(Addr vaddr, unsigned idxShift, Asid asid)
    {
        Slot *set = setOf(vaddr >> idxShift);
        for (unsigned way = 0; way < activeWays_; ++way) {
            Slot &s = set[way];
            if (!s.valid || s.entry.asid != asid || !s.entry.covers(vaddr))
                continue;
            // Invalid ways sit at the LRU end of the recency stack.
            unsigned older = 0;
            for (unsigned w = 0; w < activeWays_; ++w) {
                if (w != way && (!set[w].valid || set[w].stamp < s.stamp))
                    ++older;
            }
            s.stamp = ++clock_;
            ++hits_;
            return {true, older, s.entry};
        }
        ++misses_;
        return {};
    }

    bool
    fill(const TlbEntry &e)
    {
        Slot *set = setOf(e.vbase >> e.shift);
        Slot *victim = nullptr;
        for (unsigned way = 0; way < activeWays_ && !victim; ++way) {
            Slot &s = set[way];
            if (s.valid && s.entry.asid == e.asid && s.entry.covers(e.vbase))
                victim = &s; // refill in place
        }
        for (unsigned way = 0; way < activeWays_ && !victim; ++way) {
            if (!set[way].valid)
                victim = &set[way];
        }
        const bool evicted = victim == nullptr;
        if (evicted) {
            victim = &set[0];
            for (unsigned way = 1; way < activeWays_; ++way) {
                if (set[way].stamp < victim->stamp)
                    victim = &set[way];
            }
        }
        *victim = Slot{true, e, ++clock_};
        ++fills_;
        return evicted;
    }

    void
    invalidateAll()
    {
        for (Slot &s : slots_)
            s.valid = false;
    }

    unsigned
    invalidateRange(Addr vbase, Addr vlimit, Asid asid)
    {
        unsigned n = 0;
        for (Slot &s : slots_) {
            const Addr span = Addr{1} << s.entry.shift;
            const Addr base = alignDown(s.entry.vbase, span);
            if (s.valid && s.entry.asid == asid && base < vlimit &&
                base + span > vbase) {
                s.valid = false;
                ++n;
            }
        }
        return n;
    }

    void
    setActiveWays(unsigned w)
    {
        if (w < activeWays_ && dropNext_) {
            dropNext_ = false;
        } else if (w < activeWays_) {
            for (unsigned set = 0; set < sets_; ++set) {
                for (unsigned way = w; way < activeWays_; ++way)
                    slots_[set * ways_ + way].valid = false;
            }
        }
        activeWays_ = w;
    }

    void forceActiveWays(unsigned w) { activeWays_ = w; }
    void armDropInvalidation() { dropNext_ = true; }

    unsigned
    validInDisabledWays() const
    {
        unsigned n = 0;
        for (unsigned set = 0; set < sets_; ++set) {
            for (unsigned way = activeWays_; way < ways_; ++way)
                n += slots_[set * ways_ + way].valid ? 1 : 0;
        }
        return n;
    }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const Slot &s : slots_)
            n += s.valid ? 1 : 0;
        return n;
    }

    unsigned shift() const { return shift_; }
    unsigned activeWays() const { return activeWays_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }

  private:
    struct Slot
    {
        bool valid = false;
        TlbEntry entry{};
        std::uint64_t stamp = 0;
    };

    Slot *
    setOf(Addr indexBits)
    {
        return &slots_[(indexBits & (sets_ - 1)) * ways_];
    }

    unsigned sets_;
    unsigned ways_;
    unsigned activeWays_;
    unsigned shift_;
    std::vector<Slot> slots_;
    std::uint64_t clock_ = 0;
    bool dropNext_ = false;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;
};

void
expectSameEntry(const TlbEntry &a, const TlbEntry &b)
{
    EXPECT_EQ(a.vbase, b.vbase);
    EXPECT_EQ(a.pbase, b.pbase);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.shift, b.shift);
    EXPECT_EQ(a.asid, b.asid);
}

/** ((entries, ways), whether fills mix 4 KB and 2 MB entries) */
class ReferenceModelTest
    : public ::testing::TestWithParam<
          std::tuple<std::pair<unsigned, unsigned>, bool>>
{
};

/**
 * Differential test: the real TLB and the reference model take the
 * same random steps — fills, lookups with and without the distance,
 * shootdowns, flushes, way resizes up and down, forced way masks and
 * dropped invalidations — and must agree on every observable after
 * each one.
 */
TEST_P(ReferenceModelTest, MatchesThePlainModelStepByStep)
{
    const auto [geometry, mixed] = GetParam();
    const auto [entries, ways] = geometry;
    SetAssocTlb t("t", entries, ways, 12);
    ReferenceTlb ref(entries, ways, 12);
    Rng rng(entries * 7919 + ways * 31 + mixed);

    // Most traffic goes to a hot set of pages so lookups hit and fills
    // refill; the tail spans three times the TLB's reach so fills
    // evict. ASID 0 dominates, as in single-core runs.
    const auto pickPage = [&](bool huge) {
        const Addr span = huge ? entries / ways * 2 + 4 : entries * 3;
        const Addr page = rng.chance(0.7) ? rng.below(span / 6 + 1)
                                          : rng.below(span);
        return page << (huge ? 21 : 12);
    };
    const auto pickAsid = [&] {
        return static_cast<Asid>(rng.chance(0.8) ? 0 : rng.range(1, 2));
    };

    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        const std::uint64_t r = rng.below(1000);
        if (r < 700) {
            const bool huge = mixed && rng.chance(0.3);
            const Addr vaddr = pickPage(huge) + rng.below(4096);
            const Asid asid = pickAsid();
            // A wrong page-size prediction now and then (TLB_PP).
            const unsigned idxShift = huge != rng.chance(0.1) ? 21 : 12;
            const bool withDistance = rng.chance(0.5);
            const TlbLookupResult got =
                idxShift == ref.shift()
                    ? t.lookup(vaddr, asid, withDistance)
                    : t.lookupWithShift(vaddr, idxShift, asid,
                                        withDistance);
            const ReferenceTlb::Lookup want =
                ref.lookup(vaddr, idxShift, asid);
            ASSERT_EQ(got.hit, want.hit);
            if (want.hit) {
                expectSameEntry(got.entry, want.entry);
                if (withDistance) {
                    ASSERT_EQ(got.lruDistance, want.distance);
                }
            } else if (rng.chance(0.9)) {
                // Most misses fill, as the datapath's do.
                const TlbEntry e = makePageEntry(
                    vaddr, rng.below(1u << 20) << 21,
                    huge ? PageSize::Size2M : PageSize::Size4K, asid);
                ASSERT_EQ(t.fill(e), ref.fill(e));
            }
        } else if (r < 900) {
            const bool huge = mixed && rng.chance(0.3);
            const TlbEntry e = makePageEntry(
                pickPage(huge), rng.below(1u << 20) << 21,
                huge ? PageSize::Size2M : PageSize::Size4K, pickAsid());
            ASSERT_EQ(t.fill(e), ref.fill(e));
        } else if (r < 930) {
            const Addr vbase = pickPage(false);
            const Addr vlimit = vbase + (rng.range(1, 16) << 12);
            const Asid asid = pickAsid();
            ASSERT_EQ(t.invalidateRange(vbase, vlimit, asid),
                      ref.invalidateRange(vbase, vlimit, asid));
        } else if (r < 932) {
            t.invalidateAll();
            ref.invalidateAll();
        } else if (r < 970) {
            const unsigned w = 1u << rng.below(floorLog2(ways) + 1);
            t.setActiveWays(w);
            ref.setActiveWays(w);
        } else if (r < 985) {
            const auto w = static_cast<unsigned>(rng.range(1, ways));
            t.forceActiveWays(w);
            ref.forceActiveWays(w);
        } else {
            t.armDropInvalidation();
            ref.armDropInvalidation();
        }
        ASSERT_EQ(t.activeWays(), ref.activeWays());
        ASSERT_EQ(t.hits(), ref.hits());
        ASSERT_EQ(t.misses(), ref.misses());
        ASSERT_EQ(t.fills(), ref.fills());
        ASSERT_EQ(t.validCount(), ref.validCount());
        ASSERT_EQ(t.validInDisabledWays(), ref.validInDisabledWays());
    }
    // The walk must have exercised both outcomes heavily.
    EXPECT_GT(t.hits(), 1000u);
    EXPECT_GT(t.misses(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReferenceModelTest,
    ::testing::Combine(::testing::Values(std::pair{64u, 4u},
                                         std::pair{32u, 4u},
                                         std::pair{512u, 4u},
                                         std::pair{64u, 64u},
                                         std::pair{256u, 16u}),
                       ::testing::Bool()),
    [](const auto &info) {
        const auto &geometry = std::get<0>(info.param);
        return std::to_string(geometry.first) + "x" +
               std::to_string(geometry.second) +
               (std::get<1>(info.param) ? "_mixed" : "_uniform");
    });

} // namespace
} // namespace eat::tlb
