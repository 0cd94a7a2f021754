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
      keys_(entries, kInvalidKey),
      shifts_(entries, static_cast<std::uint8_t>(shift)),
      flips_(entries, 0),
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
SetAssocTlb::lookupWithShift(Addr vaddr, unsigned idxShift, Asid asid,
                             bool withDistance)
{
    const unsigned base = indexOf(vaddr, idxShift) * ways_;
    const std::uint64_t *keys = &keys_[base];

    // Branchless probe: one key compare per active way folded into a
    // hit mask; the hit is the lowest matching way, exactly the first
    // match a way-order walk would take. Invalid slots hold
    // kInvalidKey, which no probe key equals.
    std::uint64_t mask = 0;
    if (uniformShift_) {
        const std::uint64_t key = keyOf(vaddr, shift_, asid);
        for (unsigned way = 0; way < activeWays_; ++way)
            mask |= static_cast<std::uint64_t>(keys[way] == key) << way;
    } else {
        const std::uint8_t *shifts = &shifts_[base];
        for (unsigned way = 0; way < activeWays_; ++way) {
            const bool match = keys[way] == keyOf(vaddr, shifts[way], asid);
            mask |= static_cast<std::uint64_t>(match) << way;
        }
    }
    if (mask == 0) {
        ++misses_;
        return TlbLookupResult{};
    }
    const unsigned hitWay =
        static_cast<unsigned>(std::countr_zero(mask));

    // LRU distance: the number of other active ways older than the
    // hit, where invalid ways count as older (they sit at the LRU end
    // of the stack). Stamps are unique — every touch draws from one
    // clock — so a plain comparison sum over the flat array suffices.
    unsigned older = 0;
    if (withDistance) {
        const std::uint64_t *stamps = &stamps_[base];
        const std::uint64_t hitStamp = stamps[hitWay];
        for (unsigned way = 0; way < activeWays_; ++way) {
            older += static_cast<unsigned>(
                way != hitWay &&
                (keys[way] == kInvalidKey || stamps[way] < hitStamp));
        }
        eat_assert(older < activeWays_, "corrupt recency stamps");
    }

    const unsigned i = base + hitWay;
    stamps_[i] = ++clock_;
    ++hits_;
    ppnFlipsConsumed_ += flips_[i] != 0;
    return TlbLookupResult{true, older, entryAt(i)};
}

bool
SetAssocTlb::probe(Addr vaddr, Asid asid) const
{
    const unsigned base = indexOf(vaddr, shift_) * ways_;
    for (unsigned i = base; i < base + activeWays_; ++i) {
        if (keys_[i] == keyOf(vaddr, shifts_[i], asid))
            return true;
    }
    return false;
}

bool
SetAssocTlb::fill(const TlbEntry &entry)
{
    eat_assert(entry.shift >= vm::pageShift(vm::PageSize::Size4K) &&
                   entry.vbase >> vm::kVaddrBits == 0,
               name_, ": entry ", entry.vbase, "/", entry.shift,
               " outside the ", vm::kVaddrBits, "-bit key space");
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
        if (keys_[i] == keyOf(entry.vbase, shifts_[i], entry.asid)) {
            victim = way; // refill in place
            break;
        }
        if (keys_[i] == kInvalidKey) {
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
    keys_[i] = keyOf(entry.vbase, entry.shift, entry.asid);
    shifts_[i] = static_cast<std::uint8_t>(entry.shift);
    flips_[i] = 0;
    vbases_[i] = entry.vbase;
    pbases_[i] = entry.pbase;
    sizes_[i] = entry.size;
    stamps_[i] = ++clock_;
    uniformShift_ = uniformShift_ && entry.shift == shift_;
    ++fills_;
    return evicted;
}

void
SetAssocTlb::invalidateAll()
{
    std::fill(keys_.begin(), keys_.end(), kInvalidKey);
}

unsigned
SetAssocTlb::invalidateRange(Addr vbase, Addr vlimit, Asid asid)
{
    unsigned n = 0;
    for (unsigned i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == kInvalidKey || static_cast<Asid>(keys_[i]) != asid)
            continue;
        const Addr span = Addr{1} << shifts_[i];
        const Addr entryBase = alignDown(vbases_[i], span);
        const Addr entryEnd = entryBase + span;
        if (entryBase < vlimit && entryEnd > vbase) {
            keys_[i] = kInvalidKey;
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
                    keys_[base + way] = kInvalidKey;
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
    for (const std::uint64_t key : keys_)
        n += key != kInvalidKey ? 1 : 0;
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
            n += keys_[base + way] != kInvalidKey ? 1 : 0;
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
        if (keys_[i] == kInvalidKey)
            continue;
        if (flipTag) {
            // Flip a tag bit above the index field so the entry stays
            // in its set but claims a different (aliased) region; the
            // key must track the corrupted base, exactly as a real tag
            // array would hold the flipped bit.
            const unsigned bit =
                shifts_[i] + floorLog2(sets_) + (rnd >> 32) % 4;
            vbases_[i] ^= Addr{1} << bit;
            keys_[i] = keyOf(vbases_[i], shifts_[i],
                             static_cast<Asid>(keys_[i]));
        } else {
            // Flip a PPN bit: the next hit returns a wrong paddr.
            const unsigned flip = (rnd >> 32) % 4;
            pbases_[i] ^= Addr{1} << (shifts_[i] + flip);
            flips_[i] ^= static_cast<std::uint8_t>(1u << flip);
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
