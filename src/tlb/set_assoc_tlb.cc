#include "tlb/set_assoc_tlb.hh"

#include <bit>

#include "base/logging.hh"

namespace eat::tlb
{

SetAssocTlb::SetAssocTlb(std::string name, unsigned entries, unsigned ways,
                         unsigned shift)
    : name_(std::move(name)),
      sets_(entries / (ways ? ways : 1)),
      ways_(ways),
      activeWays_(ways),
      logActiveWays_(static_cast<unsigned>(floorLog2(ways ? ways : 1))),
      shift_(shift),
      valid_(entries, 0),
      shifts_(entries, 0),
      asids_(entries, 0),
      vtags_(entries, 0),
      vbases_(entries, 0),
      pbases_(entries, 0),
      sizes_(entries, vm::PageSize::Size4K),
      stamps_(entries, 0)
{
    eat_assert(ways >= 1, name_, ": ways must be >= 1");
    eat_assert(entries % ways == 0,
               name_, ": entries (", entries, ") not divisible by ways (",
               ways, ")");
    eat_assert(isPowerOfTwo(sets_),
               name_, ": set count (", sets_, ") must be a power of two");
    eat_assert(ways <= 64,
               name_, ": associativity (", ways,
               ") exceeds the 64-way probe mask");
}

TlbLookupResult
SetAssocTlb::lookupWithShift(Addr vaddr, unsigned idxShift, Asid asid)
{
    const unsigned set = indexOf(vaddr, idxShift);
    const unsigned base = set * ways_;
    const std::uint8_t *valid = &valid_[base];
    const std::uint8_t *shifts = &shifts_[base];
    const Asid *asids = &asids_[base];
    const Addr *vtags = &vtags_[base];
    const std::uint64_t *stamps = &stamps_[base];

    // Branchless probe: one compare per active way folded into a hit
    // mask; the hit is the lowest matching way, exactly the first
    // match a way-order walk would take.
    std::uint64_t mask = 0;
    for (unsigned way = 0; way < activeWays_; ++way) {
        const bool match = valid[way] && asids[way] == asid &&
                           (vaddr >> shifts[way]) == vtags[way];
        mask |= static_cast<std::uint64_t>(match) << way;
    }
    if (mask == 0) {
        ++misses_;
        return TlbLookupResult{};
    }
    const unsigned hitWay =
        static_cast<unsigned>(std::countr_zero(mask));
    const std::uint64_t hitStamp = stamps[hitWay];

    // LRU distance: the number of other active ways older than the
    // hit, where invalid ways count as older (they sit at the LRU end
    // of the stack). Stamps are unique — every touch draws from one
    // clock — so a plain comparison sum over the flat array suffices.
    unsigned older = 0;
    for (unsigned way = 0; way < activeWays_; ++way) {
        older += static_cast<unsigned>(
            way != hitWay &&
            (!valid[way] || stamps[way] < hitStamp));
    }
    eat_assert(older < activeWays_, "corrupt recency stamps");

    stamps_[base + hitWay] = ++clock_;
    ++hits_;
    ppnFlipsConsumed_ += valid[hitWay] > 1;
    return TlbLookupResult{true, older, entryAt(base + hitWay)};
}

bool
SetAssocTlb::probe(Addr vaddr, Asid asid) const
{
    const unsigned base = indexOf(vaddr, shift_) * ways_;
    for (unsigned way = 0; way < activeWays_; ++way) {
        const unsigned i = base + way;
        if (valid_[i] && asids_[i] == asid &&
            (vaddr >> shifts_[i]) == vtags_[i]) {
            return true;
        }
    }
    return false;
}

bool
SetAssocTlb::fill(const TlbEntry &entry)
{
    const unsigned set = indexOf(entry.vbase, entry.shift);
    const unsigned base = set * ways_;

    // Reuse a slot already covering the region (refill), else an
    // invalid slot, else evict the LRU. One pass over the flat arrays
    // tracks all three candidates.
    const unsigned none = activeWays_;
    unsigned victim = none;
    unsigned invalid = none;
    unsigned lru = none;
    std::uint64_t lruStamp = 0;
    for (unsigned way = 0; way < activeWays_; ++way) {
        const unsigned i = base + way;
        if (valid_[i] && asids_[i] == entry.asid &&
            (entry.vbase >> shifts_[i]) == vtags_[i]) {
            victim = way; // refill in place
            break;
        }
        if (!valid_[i]) {
            if (invalid == none)
                invalid = way;
        } else if (lru == none || stamps_[i] < lruStamp) {
            lru = way;
            lruStamp = stamps_[i];
        }
    }
    bool evicted = false;
    if (victim == none) {
        victim = invalid != none ? invalid : lru;
        evicted = invalid == none;
    }

    const unsigned i = base + victim;
    valid_[i] = 1;
    shifts_[i] = static_cast<std::uint8_t>(entry.shift);
    asids_[i] = entry.asid;
    vtags_[i] = entry.vbase >> entry.shift;
    vbases_[i] = entry.vbase;
    pbases_[i] = entry.pbase;
    sizes_[i] = entry.size;
    stamps_[i] = ++clock_;
    ++fills_;
    return evicted;
}

void
SetAssocTlb::invalidateAll()
{
    std::fill(valid_.begin(), valid_.end(), 0);
}

unsigned
SetAssocTlb::invalidateAsid(Asid asid)
{
    unsigned n = 0;
    for (unsigned i = 0; i < valid_.size(); ++i) {
        if (valid_[i] && asids_[i] == asid) {
            valid_[i] = 0;
            ++n;
        }
    }
    return n;
}

unsigned
SetAssocTlb::invalidateRange(Addr vbase, Addr vlimit, Asid asid)
{
    unsigned n = 0;
    for (unsigned i = 0; i < valid_.size(); ++i) {
        if (!valid_[i] || asids_[i] != asid)
            continue;
        const Addr span = Addr{1} << shifts_[i];
        const Addr entryBase = alignDown(vbases_[i], span);
        const Addr entryEnd = entryBase + span;
        if (entryBase < vlimit && entryEnd > vbase) {
            valid_[i] = 0;
            ++n;
        }
    }
    return n;
}

void
SetAssocTlb::setActiveWays(unsigned w)
{
    eat_assert(isPowerOfTwo(w) && w >= 1 && w <= ways_,
               name_, ": invalid active-way count ", w);
    if (w == activeWays_)
        return;
    if (w < activeWays_) {
        // Disabling ways: invalidate their entries so re-activation
        // never exposes stale translations (consistency, paper §4.2.3).
        // An armed drop-invalidation fault skips exactly this step.
        if (dropNextInvalidation_) {
            dropNextInvalidation_ = false;
        } else {
            for (unsigned set = 0; set < sets_; ++set) {
                const unsigned base = set * ways_;
                for (unsigned way = w; way < activeWays_; ++way)
                    valid_[base + way] = 0;
            }
        }
    }
    activeWays_ = w;
    logActiveWays_ = static_cast<unsigned>(floorLog2(w));
    ++resizes_;
}

unsigned
SetAssocTlb::validCount() const
{
    unsigned n = 0;
    for (const std::uint8_t v : valid_)
        n += v ? 1 : 0;
    return n;
}

unsigned
SetAssocTlb::validInDisabledWays() const
{
    if (activeWays_ == ways_)
        return 0; // no disabled ways to hold stale entries
    unsigned n = 0;
    for (unsigned set = 0; set < sets_; ++set) {
        const unsigned base = set * ways_;
        for (unsigned way = activeWays_; way < ways_; ++way)
            n += valid_[base + way] ? 1 : 0;
    }
    return n;
}

bool
SetAssocTlb::corruptRandomEntry(std::uint64_t rnd, bool flipTag)
{
    const unsigned total = sets_ * ways_;
    const unsigned start = static_cast<unsigned>(rnd % total);
    for (unsigned n = 0; n < total; ++n) {
        const unsigned i = (start + n) % total;
        if (!valid_[i])
            continue;
        if (flipTag) {
            // Flip a tag bit above the index field so the entry stays
            // in its set but claims a different (aliased) region; the
            // cached tag must track the corrupted base, exactly as a
            // real tag array would hold the flipped bit.
            const unsigned bit =
                shifts_[i] + floorLog2(sets_) + (rnd >> 32) % 4;
            vbases_[i] ^= Addr{1} << bit;
            vtags_[i] = vbases_[i] >> shifts_[i];
        } else {
            // Flip a PPN bit: the next hit returns a wrong paddr.
            const unsigned flip = (rnd >> 32) % 4;
            pbases_[i] ^= Addr{1} << (shifts_[i] + flip);
            valid_[i] ^= static_cast<std::uint8_t>(2u << flip);
        }
        return true;
    }
    return false;
}

void
SetAssocTlb::forceActiveWays(unsigned w)
{
    eat_assert(w >= 1 && w <= ways_,
               name_, ": forced active-way count ", w, " out of range");
    activeWays_ = w;
    logActiveWays_ = static_cast<unsigned>(floorLog2(w));
}

} // namespace eat::tlb
