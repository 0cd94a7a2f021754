/**
 * @file
 * perfbench: the simulator's layered benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --scratch DIR [--digests PATH] [--pin-out PATH]
 *             [--source-id ID]
 *
 * Prints one build-and-host stamp line, then (last line) the result
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exit status: 0 after a result (even a failing one), 1 on a runtime
 * error, 2 on bad arguments or an untimeable build.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/mmu.hh"
#include "obs/json.hh"
#include "obs/provenance.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

constexpr bool kSanitized = PERFBENCH_SANITIZE;

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--digests PATH] "
                 "[--pin-out PATH] [--source-id ID]\nworkloads:";
    for (const auto &name : workloadNames())
        std::cerr << ' ' << name;
    std::cerr << '\n';
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Build, source and host facts behind every number this run prints. */
std::string
stamp(const RunOptions &options, const std::string &sourceId)
{
    eat::obs::JsonObject s;
    s.put("compiler", PERFBENCH_COMPILER);
    s.put("build_type", PERFBENCH_BUILD_TYPE);
    s.put("EAT_PROVENANCE", eat::obs::kProvenanceCompiledIn);
    s.put("EAT_FRONT_CACHE", eat::core::kFrontCacheCompiledIn);
    s.put("EAT_SANITIZE", kSanitized);
    s.put("source", sourceId);
    s.put("cpu_model", cpuModel());
    s.put("nproc", std::thread::hardware_concurrency());
    s.put("workload", options.workload);
    s.put("seed", options.seed);
    s.put("seconds", options.seconds);
    s.put("trace", options.trace);
    eat::obs::JsonObject line;
    line.putRaw("stamp", s.str());
    return line.str();
}

std::string
resultLine(const RunReport &report)
{
    eat::obs::JsonObject metrics;
    for (const auto &m : report.metrics) {
        eat::obs::JsonObject entry;
        entry.putExact("value", m.value);
        entry.put("unit", m.unit);
        metrics.putRaw(m.name, entry.str());
    }
    eat::obs::JsonObject line;
    line.put("correct", report.failed == 0);
    line.put("attempted", report.attempted);
    line.put("failed", report.failed);
    line.putRaw("metrics", metrics.str());
    return line.str();
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::string sourceId = "unknown";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            options.seed = parseCount(flag, value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            options.seconds = static_cast<double>(parseCount(flag, value));
            haveSeconds = options.seconds >= 1;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            options.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--scratch") {
            options.scratchDir = value;
        } else if (flag == "--digests") {
            options.digestsPath = value;
        } else if (flag == "--pin-out") {
            options.pinOutPath = value;
        } else if (flag == "--source-id") {
            sourceId = value;
        } else {
            usage("unknown argument '" + flag + "'");
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace ||
        options.scratchDir.empty())
        usage("--workload, --seed, --seconds (>= 1), --trace and --scratch "
              "are required");
    if (kSanitized && !options.trace) {
        std::cerr << "perfbench: refusing to report end-to-end numbers "
                     "from a sanitizer build (EAT_SANITIZE=ON)\n";
        return 2;
    }

    std::cout << stamp(options, sourceId) << std::endl;
    try {
        const auto report = runWorkload(options);
        std::cout << resultLine(report) << std::endl;
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
