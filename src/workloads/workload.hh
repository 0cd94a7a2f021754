/**
 * @file
 * Workload specification and the deterministic memory-operation
 * generator that feeds the MMU.
 */

#ifndef EAT_WORKLOADS_WORKLOAD_HH
#define EAT_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "vm/memory_manager.hh"
#include "workloads/pattern.hh"

namespace eat::workloads
{

/** One allocation the workload performs at startup. */
struct AllocSpec
{
    std::uint64_t bytes = 0;
    unsigned count = 1; ///< number of identical regions to mmap
};

/**
 * A declarative workload model: its allocations, its access-pattern
 * recipe (built once the regions are mapped), and its density of memory
 * operations.
 */
struct WorkloadSpec
{
    std::string name;
    std::string suite;        ///< "SPEC 2006", "PARSEC", "BioBench"
    bool tlbIntensive = false;///< > 5 L1 TLB MPKI with 4 KB pages (paper)
    unsigned memOpsPerKiloInstr = 300;
    std::vector<AllocSpec> allocs;

    /**
     * Build the access pattern over the mapped regions. The regions
     * arrive in allocation order: allocs[0].count regions first, then
     * allocs[1].count, and so on.
     */
    std::function<PatternPtr(const std::vector<vm::Region> &)> buildPattern;

    /** Total footprint in bytes. */
    std::uint64_t footprintBytes() const;
};

/** One generated memory operation. */
struct MemOp
{
    Addr vaddr = 0;
    /** Instructions retired since the previous memory operation
     *  (>= 1; includes this operation's instruction). */
    InstrCount instrGap = 1;
};

/**
 * Drives a WorkloadSpec: performs its allocations against a
 * MemoryManager and then produces the deterministic operation stream.
 */
class WorkloadGenerator
{
  public:
    /**
     * Allocates the workload's regions through @p mm and builds the
     * pattern. The same (spec, seed) pair always yields bit-identical
     * streams regardless of the OS policy in @p mm.
     */
    WorkloadGenerator(const WorkloadSpec &spec, vm::MemoryManager &mm,
                      std::uint64_t seed);

    /** The next memory operation. */
    MemOp
    next()
    {
        const InstrCount gap = nextGap();
        now_ += gap;
        return MemOp{pattern_->next(rng_, now_), gap};
    }

    /** Fast-forward roughly @p instructions instructions of execution. */
    void skip(InstrCount instructions);

    /** Instructions retired so far (including gaps already emitted). */
    InstrCount instructionsRetired() const { return now_; }

    const std::vector<vm::Region> &regions() const { return regions_; }

  private:
    /**
     * gap = floor((carry + 1000) / d) with the remainder carried, so the
     * average is exactly 1000 / d and the stream is deterministic. With
     * 1000 = q*d + r and carry < d, that is q plus one when carry + r
     * reaches d: one add and one compare, no division.
     */
    InstrCount
    nextGap()
    {
        gapCarry_ += gapRemainder_;
        if (gapCarry_ < gapDivisor_)
            return gapQuotient_;
        gapCarry_ -= gapDivisor_;
        return gapQuotient_ + 1;
    }

    PatternPtr pattern_;
    std::vector<vm::Region> regions_;
    Rng rng_;
    InstrCount now_ = 0;

    // Gap clock for d = memOpsPerKiloInstr; d <= 1000, so q >= 1.
    std::uint64_t gapDivisor_ = 1;   ///< d
    std::uint64_t gapQuotient_ = 0;  ///< q = 1000 / d
    std::uint64_t gapRemainder_ = 0; ///< r = 1000 % d
    std::uint64_t gapCarry_ = 0;     ///< always < d
};

} // namespace eat::workloads

#endif // EAT_WORKLOADS_WORKLOAD_HH
