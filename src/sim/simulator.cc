#include "sim/simulator.hh"

#include <limits>

#include "base/logging.hh"
#include "mc/mc_simulator.hh"
#include "workloads/trace.hh"

namespace eat::sim
{

double
SimResult::energyPerKiloInstr() const
{
    if (stats.instructions == 0)
        return 0.0;
    return totalEnergy() * 1000.0 /
           static_cast<double>(stats.instructions);
}

double
SimResult::missCyclesPerKiloInstr() const
{
    if (stats.instructions == 0)
        return 0.0;
    return static_cast<double>(stats.tlbMissCycles()) * 1000.0 /
           static_cast<double>(stats.instructions);
}

double
SimResult::simKips() const
{
    return obs::simKips(stats.instructions, profile.total());
}

namespace
{

/** The engine configuration of a one-core run of @p config. */
mc::McConfig
oneCore(const SimConfig &config)
{
    mc::McConfig run;
    run.base = config;
    run.mix = {config.workload};
    return run;
}

/** The sole core's result, with the run's provenance summary. */
SimResult
soleCore(mc::McResult run)
{
    SimResult result = std::move(run.perCore.front());
    result.provenanceEnabled = run.provenanceEnabled;
    result.provenance = std::move(run.provenance);
    return result;
}

} // namespace

SimResult
simulate(const SimConfig &config)
{
    return soleCore(mc::mcSimulate(oneCore(config)));
}

SimResult
simulateFromTrace(const SimConfig &config, const std::string &tracePath)
{
    mc::McConfig run = oneCore(config);
    run.base.fastForwardInstructions = 0;
    run.base.simulateInstructions = std::numeric_limits<InstrCount>::max();
    SimResult result = soleCore(mc::mcReplay(run, tracePath));
    result.workloadName += " (trace)";
    return result;
}

std::uint64_t
recordTrace(const SimConfig &config, const std::string &tracePath)
{
    const auto mm =
        mc::makeAddressSpace(config, {config.workload}, config.seed);
    workloads::WorkloadGenerator gen(config.workload, *mm, config.seed);
    if (config.fastForwardInstructions > 0)
        gen.skip(config.fastForwardInstructions);

    workloads::TraceWriter writer(tracePath);
    const InstrCount end =
        gen.instructionsRetired() + config.simulateInstructions;
    while (gen.instructionsRetired() < end)
        writer.write(gen.next());
    eat_check_fatal(writer.close());
    return writer.recordsWritten();
}

} // namespace eat::sim
