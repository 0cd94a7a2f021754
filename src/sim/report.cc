#include "sim/report.hh"

#include <cstdio>

#include "base/logging.hh"
#include "mc/run_spec.hh"

namespace eat::sim
{

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    mc::RunFlags run(mc::kBench);
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--quick") {
            run.spec.simInstructions = 4'000'000;
            run.spec.fastForward = 500'000;
        } else if (const auto taken = run.take(arg); !taken.ok()) {
            eat_fatal(taken.status().message());
        } else if (!taken.value()) {
            eat_fatal("unknown bench option: ", arg,
                      " (supported: --instructions=N --fast-forward=N "
                      "--seed=N --csv --quick)");
        }
    }
    opts.simulateInstructions = run.spec.simInstructions;
    opts.fastForwardInstructions = run.spec.fastForward;
    opts.seed = run.spec.seed;
    return opts;
}

std::vector<OrgVariant>
orgVariants(const std::vector<core::MmuOrg> &orgs)
{
    std::vector<OrgVariant> variants;
    variants.reserve(orgs.size());
    for (const auto org : orgs) {
        variants.push_back({std::string(core::orgName(org)),
                            core::MmuConfig::make(org)});
    }
    return variants;
}

std::vector<WorkloadRow>
runMatrix(const std::vector<workloads::WorkloadSpec> &workloads,
          const std::vector<core::MmuOrg> &orgs, const BenchOptions &opts)
{
    return runMatrix(workloads, orgVariants(orgs), opts);
}

std::vector<WorkloadRow>
runMatrix(const std::vector<workloads::WorkloadSpec> &workloads,
          const std::vector<OrgVariant> &variants,
          const BenchOptions &opts)
{
    std::vector<WorkloadRow> rows;
    rows.reserve(workloads.size());
    for (const auto &w : workloads) {
        WorkloadRow row;
        row.workload = w.name;
        for (const auto &variant : variants) {
            std::fprintf(stderr, "  running %-12s under %-8s ...\n",
                         w.name.c_str(), variant.label.c_str());
            SimConfig cfg;
            cfg.workload = w;
            cfg.mmu = variant.mmu;
            cfg.simulateInstructions = opts.simulateInstructions;
            cfg.fastForwardInstructions = opts.fastForwardInstructions;
            cfg.seed = opts.seed;
            row.byOrg.push_back(simulate(cfg));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

double
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

stats::TextTable
normalizedTable(const std::vector<WorkloadRow> &rows,
                const std::vector<core::MmuOrg> &orgs,
                double (*metric)(const SimResult &),
                const std::string &metricName)
{
    return normalizedTable(rows, orgVariants(orgs), metric, metricName);
}

stats::TextTable
normalizedTable(const std::vector<WorkloadRow> &rows,
                const std::vector<OrgVariant> &variants,
                double (*metric)(const SimResult &),
                const std::string &metricName)
{
    std::vector<std::string> headers{metricName};
    for (const auto &variant : variants)
        headers.push_back(variant.label);
    stats::TextTable table(std::move(headers));

    std::vector<std::vector<double>> normByOrg(variants.size());
    for (const auto &row : rows) {
        eat_assert(row.byOrg.size() == variants.size(),
                   "row/org arity mismatch");
        const double base = metric(row.byOrg[0]);
        std::vector<std::string> cells{row.workload};
        for (std::size_t o = 0; o < variants.size(); ++o) {
            const double v = metric(row.byOrg[o]);
            const double norm = base > 0.0 ? v / base : 0.0;
            normByOrg[o].push_back(norm);
            cells.push_back(stats::TextTable::num(norm, 3));
        }
        table.addRow(std::move(cells));
    }

    std::vector<std::string> avg{"average"};
    for (std::size_t o = 0; o < variants.size(); ++o)
        avg.push_back(stats::TextTable::num(meanOf(normByOrg[o]), 3));
    table.addRow(std::move(avg));
    return table;
}

double
energyMetric(const SimResult &r)
{
    return r.energyPerKiloInstr();
}

double
missCyclesMetric(const SimResult &r)
{
    return r.missCyclesPerKiloInstr();
}

} // namespace eat::sim
