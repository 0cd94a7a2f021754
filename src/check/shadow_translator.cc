#include "check/shadow_translator.hh"

#include "base/logging.hh"

namespace eat::check
{

void
RunList::add(const Run &run)
{
    eat_assert(runs_.empty() || runs_.back().vlimit <= run.vbase,
               "runs added out of vbase order");
    runs_.push_back(run);
}

void
RunList::addPages(Addr vbase, Addr pbase, vm::PageSize size,
                  std::uint64_t count)
{
    const Addr vlimit = vbase + vm::pageBytes(size) * count;
    if (!runs_.empty()) {
        Run &back = runs_.back();
        if (back.size == size && back.vlimit == vbase &&
            back.paddr(back.vlimit) == pbase) {
            back.vlimit = vlimit;
            return;
        }
    }
    add({{vbase, vlimit, pbase}, size});
}

bool
RunList::search(Addr vaddr) const
{
    if (runs_.empty())
        return false;
    // Halve [base, base + n) toward the last run with vbase <= vaddr
    // (the first run when there is none). The select compiles to a
    // conditional move: no branch to mispredict on random addresses.
    const Run *base = runs_.data();
    std::size_t n = runs_.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        base = base[half].vbase <= vaddr ? base + half : base;
        n -= half;
    }
    if (!base->contains(vaddr))
        return false;
    last_ = *base;
    return true;
}

ShadowTranslator::ShadowTranslator(const vm::PageTable &pageTable,
                                   const vm::RangeTable *rangeTable)
    : pageTable_(pageTable), rangeTable_(rangeTable)
{
    rebuild();
}

void
ShadowTranslator::rebuild()
{
    pages_.clear();
    ranges_.clear();
    pageCount_ = 0;

    pageTable_.forEachLeafRun(
        [this](const vm::Translation &t, std::uint64_t count) {
            pages_.addPages(t.vbase, t.pbase, t.size, count);
            pageCount_ += count;
        });

    // The range table merges adjacent ranges itself; copying its
    // entries as they are keeps its bounds in mismatch messages.
    if (rangeTable_) {
        for (const auto &[vbase, range] : *rangeTable_)
            ranges_.add({range});
    }
}

} // namespace eat::check
