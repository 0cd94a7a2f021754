#include "tlb/range_tlb.hh"

#include <algorithm>

#include "base/logging.hh"

namespace eat::tlb
{

RangeTlb::RangeTlb(std::string name, unsigned entries)
    : name_(std::move(name)), slots_(entries)
{
    eat_assert(entries >= 1, name_, ": range TLB needs >= 1 entry");
    index_.reserve(entries);
}

void
RangeTlb::rebuildIndex()
{
    index_.clear();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        if (slots_[i].valid)
            index_.push_back(i);
    }
    std::sort(index_.begin(), index_.end(),
              [this](unsigned a, unsigned b) {
                  const Slot &sa = slots_[a];
                  const Slot &sb = slots_[b];
                  if (sa.asid != sb.asid)
                      return sa.asid < sb.asid;
                  return sa.range.vbase < sb.range.vbase;
              });
    indexDirty_ = false;
}

std::optional<vm::RangeTranslation>
RangeTlb::lookup(Addr vaddr, Asid asid)
{
    if (corrupted_) {
        // Overlapping (corrupted) ranges make first-match order
        // observable; keep the historical scan.
        for (unsigned i = 0; i < slots_.size(); ++i) {
            Slot &s = slots_[i];
            if (s.valid && s.asid == asid && s.range.contains(vaddr)) {
                s.stamp = ++clock_;
                ++hits_;
                return s.range;
            }
        }
        ++misses_;
        return std::nullopt;
    }

    if (indexDirty_)
        rebuildIndex();

    // The only candidate is the predecessor: the last range of this
    // asid starting at or before vaddr (cached ranges are disjoint per
    // address space).
    const auto it = std::upper_bound(
        index_.begin(), index_.end(), vaddr,
        [this, asid](Addr v, unsigned slot) {
            const Slot &s = slots_[slot];
            if (asid != s.asid)
                return asid < s.asid;
            return v < s.range.vbase;
        });
    if (it != index_.begin()) {
        const unsigned i = *(it - 1);
        Slot &s = slots_[i];
        if (s.asid == asid && s.range.contains(vaddr)) {
            s.stamp = ++clock_;
            ++hits_;
            return s.range;
        }
    }
    ++misses_;
    return std::nullopt;
}

bool
RangeTlb::probe(Addr vaddr, Asid asid) const
{
    for (const auto &s : slots_) {
        if (s.valid && s.asid == asid && s.range.contains(vaddr))
            return true;
    }
    return false;
}

bool
RangeTlb::fill(const vm::RangeTranslation &range, Asid asid)
{
    Slot *victim = nullptr;
    for (auto &s : slots_) {
        if (s.valid && s.asid == asid && s.range == range) {
            // Already present (e.g. racing refills); just touch it.
            s.stamp = ++clock_;
            return false;
        }
        if (!s.valid && !victim)
            victim = &s;
    }
    bool evicted = false;
    if (!victim) {
        victim = &slots_[0];
        for (auto &s : slots_) {
            if (s.stamp < victim->stamp)
                victim = &s;
        }
        evicted = true;
    }
    victim->valid = true;
    victim->range = range;
    victim->stamp = ++clock_;
    victim->asid = asid;
    ++fills_;
    indexDirty_ = true;
    return evicted;
}

void
RangeTlb::invalidateAll()
{
    for (auto &s : slots_)
        s.valid = false;
    indexDirty_ = true;
}

unsigned
RangeTlb::invalidateAsid(Asid asid)
{
    unsigned n = 0;
    for (auto &s : slots_) {
        if (s.valid && s.asid == asid) {
            s.valid = false;
            ++n;
        }
    }
    if (n > 0)
        indexDirty_ = true;
    return n;
}

unsigned
RangeTlb::invalidateRange(Addr vbase, Addr vlimit, Asid asid)
{
    unsigned n = 0;
    for (auto &s : slots_) {
        if (s.valid && s.asid == asid && s.range.vbase < vlimit &&
            s.range.vlimit > vbase) {
            s.valid = false;
            ++n;
        }
    }
    if (n > 0)
        indexDirty_ = true;
    return n;
}

bool
RangeTlb::corruptRandomEntry(std::uint64_t rnd, bool flipTag)
{
    const std::size_t total = slots_.size();
    const std::size_t start = static_cast<std::size_t>(rnd % total);
    for (std::size_t i = 0; i < total; ++i) {
        Slot &s = slots_[(start + i) % total];
        if (!s.valid)
            continue;
        const unsigned bit = 12 + (rnd >> 32) % 4;
        if (flipTag) {
            // Grow the claimed range: the entry now covers pages the
            // real range translation does not.
            s.range.vlimit += Addr{1} << bit;
        } else {
            s.range.pbase ^= Addr{1} << bit;
        }
        corrupted_ = true;
        return true;
    }
    return false;
}

unsigned
RangeTlb::validCount() const
{
    unsigned n = 0;
    for (const auto &s : slots_)
        n += s.valid ? 1 : 0;
    return n;
}

} // namespace eat::tlb
