#include "workloads/workload.hh"

#include "base/logging.hh"

namespace eat::workloads
{

std::uint64_t
WorkloadSpec::footprintBytes() const
{
    std::uint64_t total = 0;
    for (const auto &a : allocs)
        total += a.bytes * a.count;
    return total;
}

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec &spec,
                                     vm::MemoryManager &mm,
                                     std::uint64_t seed)
    : rng_(seed)
{
    eat_assert(spec.memOpsPerKiloInstr >= 1 &&
                   spec.memOpsPerKiloInstr <= 1000,
               spec.name, ": memOpsPerKiloInstr must be in [1, 1000]");
    gapDivisor_ = spec.memOpsPerKiloInstr;
    gapQuotient_ = 1000 / gapDivisor_;
    gapRemainder_ = 1000 % gapDivisor_;
    eat_assert(!spec.allocs.empty(), spec.name, ": no allocations");
    eat_assert(spec.buildPattern != nullptr, spec.name, ": no pattern");

    for (const auto &a : spec.allocs) {
        for (unsigned i = 0; i < a.count; ++i)
            regions_.push_back(mm.mmap(a.bytes));
    }
    pattern_ = spec.buildPattern(regions_);
    eat_assert(pattern_ != nullptr, spec.name, ": pattern builder failed");
}

void
WorkloadGenerator::skip(InstrCount instructions)
{
    const InstrCount target = now_ + instructions;
    while (now_ < target)
        (void)next();
}

} // namespace eat::workloads
