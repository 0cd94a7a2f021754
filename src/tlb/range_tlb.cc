#include "tlb/range_tlb.hh"

#include "base/logging.hh"

namespace eat::tlb
{

RangeTlb::RangeTlb(std::string name, unsigned entries)
    : name_(std::move(name)), slots_(entries)
{
    eat_assert(entries >= 1, name_, ": range TLB needs >= 1 entry");
}

std::optional<vm::RangeTranslation>
RangeTlb::lookup(Addr vaddr, Asid asid)
{
    for (Slot &s : slots_) {
        if (s.valid && s.asid == asid && s.range.contains(vaddr)) {
            s.stamp = ++clock_;
            ++hits_;
            ppnFlipsConsumed_ += s.valid > 1;
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
            s.valid = 1;
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
    victim->valid = 1;
    victim->range = range;
    victim->stamp = ++clock_;
    victim->asid = asid;
    ++fills_;
    return evicted;
}

void
RangeTlb::invalidateAll()
{
    for (auto &s : slots_)
        s.valid = 0;
}

unsigned
RangeTlb::invalidateRange(Addr vbase, Addr vlimit, Asid asid)
{
    unsigned n = 0;
    for (auto &s : slots_) {
        if (s.valid && s.asid == asid && s.range.vbase < vlimit &&
            s.range.vlimit > vbase) {
            s.valid = 0;
            ++n;
        }
    }
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
        const unsigned flip = (rnd >> 32) % 4;
        if (flipTag) {
            // Grow the claimed range: the entry now covers pages the
            // real range translation does not.
            s.range.vlimit += Addr{1} << (12 + flip);
        } else {
            s.range.pbase ^= Addr{1} << (12 + flip);
            s.valid ^= static_cast<std::uint8_t>(2u << flip);
        }
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
