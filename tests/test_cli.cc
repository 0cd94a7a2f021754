/**
 * @file
 * Negative-path tests for the command-line drivers.
 *
 * The positive paths are covered by the library tests and CI's smoke
 * lanes; what those never exercise is how the tools fail. A malformed
 * flag that exits 0, or a crash where a diagnostic belongs, silently
 * corrupts sweep scripts — so every case here asserts BOTH the nonzero
 * exit code and a recognizable fragment of the diagnostic text.
 *
 * Binary locations come from CMake compile definitions
 * (EAT_EATSIM_PATH etc.), so the tests run against exactly the
 * binaries this build produced.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "scratch_dir.hh"

namespace
{

struct CmdResult
{
    int exitCode = -1;
    std::string output; ///< stdout + stderr interleaved
};

/** Run @p cmd under the shell, capturing output and exit status. */
CmdResult
run(const std::string &cmd)
{
    CmdResult result;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return result;
    }
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        result.output.append(buffer, n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        result.exitCode = 128 + WTERMSIG(status);
    return result;
}

void
expectFailure(const std::string &cmd, int exitCode,
              const std::string &fragment)
{
    const CmdResult result = run(cmd);
    EXPECT_EQ(result.exitCode, exitCode)
        << cmd << "\noutput:\n" << result.output;
    EXPECT_NE(result.output.find(fragment), std::string::npos)
        << cmd << ": diagnostic must mention '" << fragment
        << "'\noutput:\n" << result.output;
}

const std::string kEatsim = EAT_EATSIM_PATH;
const std::string kEatbatch = EAT_EATBATCH_PATH;
const std::string kEatfuzz = EAT_EATFUZZ_PATH;
const std::string kEatreport = EAT_EATREPORT_PATH;

TEST(CliEatsim, RejectsMalformedInjectGrammar)
{
    // Unknown fault kind, garbage probability, empty clause, and an
    // out-of-range probability: all usage errors before any simulation
    // starts.
    expectFailure(kEatsim + " --workload=mcf --inject=frobnicate:0.1", 2,
                  "--inject");
    expectFailure(kEatsim + " --workload=mcf --inject=tag-flip@l1-4k:zap",
                  2, "--inject");
    expectFailure(kEatsim + " --workload=mcf --inject=", 2, "--inject");
    expectFailure(kEatsim + " --workload=mcf --inject=ppn-flip:1.5", 2,
                  "--inject");
}

TEST(CliEatsim, RejectsUnknownWorkloadAndOrg)
{
    expectFailure(kEatsim + " --workload=quake3", 2, "unknown workload");
    expectFailure(kEatsim + " --workload=mcf --org=HUGE", 2,
                  "unknown organization");
}

TEST(CliEatsim, RejectsGarbageNumericFlags)
{
    expectFailure(kEatsim + " --workload=mcf --instructions=many", 2,
                  "--instructions");
    expectFailure(kEatsim + " --workload=mcf --seed=0x", 2, "--seed");
}

TEST(CliEatsim, FailsOnMissingTraceFile)
{
    expectFailure(kEatsim + " --workload=mcf --replay=" +
                      eat::test::scratchDir() + "no_such_trace.eat",
                  1, "cannot open trace file");
}

TEST(CliEatsim, FailsOnTruncatedTraceFile)
{
    // A file that passes the magic check but whose body is shorter
    // than the record count the header promises.
    const std::string path =
        eat::test::scratchDir() + "truncated_trace.eat";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write("EATTRACE", 8);
        const std::uint32_t version = 1;
        const std::uint32_t records = 1000;
        out.write(reinterpret_cast<const char *>(&version), 4);
        out.write(reinterpret_cast<const char *>(&records), 4);
        out.write("\x01\x02\x03", 3); // a fraction of one record
    }
    const CmdResult result =
        run(kEatsim + " --workload=mcf --replay=" + path);
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("trace file"), std::string::npos)
        << result.output;
}

TEST(CliEatsim, FailsOnGarbageTraceFile)
{
    const std::string path = eat::test::scratchDir() + "garbage_trace.eat";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "this is not a trace file at all, but it is long enough";
    }
    expectFailure(kEatsim + " --workload=mcf --replay=" + path, 1,
                  "bad magic");
}

TEST(CliEatsim, RejectsBadCoreCounts)
{
    expectFailure(kEatsim + " --workload=mcf --cores=0", 2,
                  "out of range");
    expectFailure(kEatsim + " --workload=mcf --cores=99", 2,
                  "out of range");
    expectFailure(kEatsim + " --workload=mcf --cores=two", 2, "--cores");
}

TEST(CliEatsim, RejectsBadMixes)
{
    expectFailure(kEatsim + " --mix=nosuchworkload", 2,
                  "unknown workload");
    expectFailure(kEatsim + " --mix=", 2, "empty mix");
    expectFailure(kEatsim + " --mix=mcf,,canneal", 2,
                  "empty workload name");
}

TEST(CliEatsim, RejectsInconsistentMulticoreFlags)
{
    expectFailure(kEatsim + " --workload=mcf --cores=2 --fault-core=2",
                  2, "--fault-core");
    expectFailure(kEatsim + " --workload=mcf --cores=2 --quantum=0", 2,
                  "--quantum");
    expectFailure(kEatsim + " --workload=mcf --cores=2 --record=" +
                      eat::test::scratchDir() + "mc.eat",
                  2, "single-core only");
}

TEST(CliEatsim, RejectsAnEmptyMeasuredWindow)
{
    expectFailure(kEatsim + " --workload=mcf --instructions=0", 2,
                  "--instructions: must be positive");
}

TEST(CliEatsim, RejectsMulticoreFlagsWithoutCoresOrMix)
{
    // On one core with no mix these flags would change nothing; a run
    // that silently ignores them is not the run that was asked for.
    for (const std::string flag :
         {"--remap-interval=1000", "--quantum=5000", "--fault-core=7",
          "--shared", "--ctx-flush"}) {
        expectFailure(kEatsim + " --workload=mcf " + flag, 2,
                      flag.substr(0, flag.find('=')) +
                          " requires --cores/--mix");
    }
}

TEST(CliEatbatch, RejectsBadCoresAndMixes)
{
    const std::string base =
        kEatbatch + " --out=" + eat::test::scratchDir() + "cli_mc.csv";
    expectFailure(base + " --cores=0", 2, "out of range");
    expectFailure(base + " --cores=99", 2, "out of range");
    expectFailure(base + " --mix=nosuchworkload", 2, "unknown workload");
    expectFailure(base + " --mix=", 2, "empty mix");
}

TEST(CliEatbatch, RejectsAnEmptyMeasuredWindow)
{
    expectFailure(kEatbatch + " --out=" + eat::test::scratchDir() +
                      "cli_window.csv --instructions=0",
                  2, "--instructions: must be positive");
}

TEST(CliEatbatch, RejectsMulticoreFlagsWithoutCoresOrMix)
{
    const std::string base =
        kEatbatch + " --out=" + eat::test::scratchDir() + "cli_orphan.csv";
    for (const std::string flag :
         {"--remap-interval=1000", "--quantum=5000", "--shared",
          "--ctx-flush"}) {
        expectFailure(base + " " + flag, 2,
                      flag.substr(0, flag.find('=')) +
                          " requires --cores/--mix");
    }
}

TEST(CliEatbatch, OneCoreRunsTheMulticoreSweep)
{
    // A given --cores selects the multicore driver at any count, as in
    // eatsim: the workloads become one mix, one row per organization,
    // and --coherence is accepted.
    const std::string csv = eat::test::scratchDir() + "cli_one_core.csv";
    const CmdResult result =
        run(kEatbatch + " --out=" + csv +
            " --cores=1 --coherence=hw --workloads=mcf,astar --orgs=THP"
            " --instructions=20000 --fast-forward=2000 -j1");
    ASSERT_EQ(result.exitCode, 0) << result.output;
    std::ifstream in(csv);
    std::string header, row, extra;
    ASSERT_TRUE(std::getline(in, header) && std::getline(in, row));
    EXPECT_EQ(row.rfind("\"mcf,astar\",THP,ok,", 0), 0u) << row;
    EXPECT_FALSE(std::getline(in, extra)) << extra;
}

TEST(CliEatbatch, RejectsBadJobCounts)
{
    const std::string base =
        kEatbatch + " --out=" + eat::test::scratchDir() + "cli_jobs.csv";
    expectFailure(base + " --jobs=0", 2, "jobs");
    expectFailure(base + " --jobs=grue", 2, "jobs");
    expectFailure(base + " -j100000", 2, "jobs");
}

TEST(CliEatbatch, RejectsMalformedInjectAndUsage)
{
    expectFailure(kEatbatch + " --out=" + eat::test::scratchDir() +
                      "cli_inject.csv --inject=ppn-flip@moon:0.1",
                  2, "--inject");
    expectFailure(kEatbatch, 2, "usage");
    expectFailure(kEatbatch + " --workloads=nonexistent --out=" +
                      eat::test::scratchDir() + "cli_wl.csv",
                  1, "unknown workload");
}

TEST(CliEatsim, RejectsBadL3Flags)
{
    // Unknown mode, policy without the cache substrate, streak without
    // the promote policy, and a zero streak: usage errors before any
    // simulation starts.
    expectFailure(kEatsim + " --workload=mcf --l3=bogus", 2,
                  "unknown l3 mode");
    expectFailure(kEatsim + " --workload=mcf --l3-policy=walk", 2,
                  "--l3-policy requires --l3=cache");
    expectFailure(kEatsim + " --workload=mcf --l3=dram --l3-policy=walk",
                  2, "--l3-policy requires --l3=cache");
    expectFailure(kEatsim +
                      " --workload=mcf --l3=cache --l3-promote-streak=3",
                  2, "--l3-promote-streak requires --l3-policy=promote");
    expectFailure(kEatsim + " --workload=mcf --l3=cache "
                            "--l3-policy=promote --l3-promote-streak=0",
                  2, "must be positive");
}

TEST(CliEatbatch, RejectsBadL3Flags)
{
    const std::string base =
        kEatbatch + " --out=" + eat::test::scratchDir() + "cli_l3.csv";
    expectFailure(base + " --l3=bogus", 2, "unknown l3 mode");
    expectFailure(base + " --l3-policy=walk", 2,
                  "--l3-policy requires --l3=cache");
    expectFailure(base + " --l3=cache --l3-promote-streak=2", 2,
                  "--l3-promote-streak requires --l3-policy=promote");
    expectFailure(base + " --l3=cache --l3-policy=promote "
                         "--l3-promote-streak=0",
                  2, "must be positive");
}

TEST(CliEatbatch, ResumeRefusesAForeignL3Fingerprint)
{
    // The sweep's l3 knobs are part of the checkpoint fingerprint:
    // resuming a journal under a different tier configuration must be
    // refused outright, not silently mixed into the CSV.
    const std::string csv = eat::test::scratchDir() + "cli_l3fp.csv";
    const std::string journal = eat::test::scratchDir() + "cli_l3fp.journal";

    const std::string base = kEatbatch + " --out=" + csv +
                             " --workloads=mcf --orgs=4KB"
                             " --instructions=20000 --fast-forward=2000"
                             " --checkpoint=" + journal;
    const CmdResult seeded = run(base);
    ASSERT_EQ(seeded.exitCode, 0) << seeded.output;
    expectFailure(base + " --l3=cache --resume", 1,
                  "belongs to a different campaign");
}

TEST(CliEatfuzz, RejectsBadUsage)
{
    expectFailure(kEatfuzz + " --frobnicate", 2, "usage");
    expectFailure(kEatfuzz + " --runs=few", 2, "--runs");
    expectFailure(kEatfuzz + " --jobs=0", 2, "jobs");
    expectFailure(kEatfuzz + " --replay=x --self-test", 2,
                  "mutually exclusive");
}

TEST(CliEatfuzz, FailsOnMissingOrEmptyCorpus)
{
    expectFailure(kEatfuzz + " --shrink=" + eat::test::scratchDir() +
                      "no_such_seed.json",
                  1, "cannot open seed file");
    const std::string empty = eat::test::scratchDir() + "empty_corpus";
    ASSERT_EQ(run("mkdir -p " + empty).exitCode, 0);
    expectFailure(kEatfuzz + " --replay=" + empty, 1, "seed files");
}

TEST(CliEatbatch, RejectsBadCampaignFlags)
{
    const std::string base =
        kEatbatch + " --out=" + eat::test::scratchDir() + "cli_camp.csv";
    expectFailure(base + " --retries=garbage", 2, "--retries");
    expectFailure(base + " --retries=99", 2, "cap");
    expectFailure(base + " --checkpoint=", 2, "--checkpoint");
    expectFailure(base + " --timeout=4294967297", 2,
                  "--timeout: 4294967297 is out of range");
}

TEST(CliEatfuzz, RejectsBadCampaignFlags)
{
    expectFailure(kEatfuzz + " --retries=nope", 2, "--retries");
    expectFailure(kEatfuzz + " --retries=99", 2, "cap");
    expectFailure(kEatfuzz + " --checkpoint=", 2, "--checkpoint");
    expectFailure(kEatfuzz + " --resume", 2, "requires --checkpoint");
    expectFailure(kEatfuzz + " --checkpoint=" + eat::test::scratchDir() +
                      "cli_camp.jsonl --self-test",
                  2, "campaign mode");
    expectFailure(kEatfuzz + " --checkpoint=" + eat::test::scratchDir() +
                      "cli_camp.jsonl --resume --shrink=x",
                  2, "campaign mode");
    expectFailure(kEatfuzz + " --kill-after=4294967296", 2,
                  "--kill-after: 4294967296 is out of range");
}

TEST(CliEatfuzz, EachModeRefusesTheFlagsItIgnores)
{
    // Replay takes the engine's scheduling flags and --verdicts; shrink
    // takes --corpus-dir; the self-test takes nothing else. Every other
    // flag is refused before any work, naming the flag and the mode.
    const std::string dir = eat::test::scratchDir();
    const std::string replay =
        kEatfuzz + " --replay=" + EAT_CORPUS_DIR + "/seed-thp.json";
    for (const std::string &flag : std::vector<std::string>{
             "--runs=5", "--seed=9", "--corpus-dir=" + dir + "cli_never",
             "--no-shrink", "--resume",
             "--checkpoint=" + dir + "cli_mode.jsonl", "--kill-after=1"}) {
        expectFailure(replay + " " + flag, 2,
                      flag.substr(0, flag.find('=')) +
                          " does not apply to --replay mode");
    }
    EXPECT_FALSE(std::ifstream(dir + "cli_never").good())
        << "a refused replay must not create the corpus dir";

    const std::string shrink = kEatfuzz + " --shrink=" + EAT_CORPUS_DIR +
                               "/seed-thp.json";
    expectFailure(shrink + " -j2", 2, "-j does not apply to --shrink mode");
    expectFailure(shrink + " --verdicts=" + dir + "cli_v.jsonl", 2,
                  "it applies to campaign mode and --replay mode");
    expectFailure(shrink + " --timeout=5", 2,
                  "--timeout does not apply to --shrink mode");
    expectFailure(kEatfuzz + " --self-test --corpus-dir=" + dir, 2,
                  "it applies to campaign mode and --shrink mode");
    expectFailure(kEatfuzz + " --self-test --retries=1", 2,
                  "--retries does not apply to --self-test mode");

    // What each mode does take still runs.
    const CmdResult replayed =
        run(replay + " -j2 --timeout=60 --retries=1 --verdicts=" + dir +
            "cli_mode_verdicts.jsonl");
    EXPECT_EQ(replayed.exitCode, 0) << replayed.output;
}

TEST(CliEatsim, RejectsBadVirtualizationFlags)
{
    expectFailure(kEatsim + " --workload=mcf --vm=bogus", 2,
                  "unknown host-table mode");
    expectFailure(kEatsim + " --workload=mcf --host-pages=2m", 2,
                  "--host-pages requires --vm");
    expectFailure(kEatsim + " --workload=mcf --vm --host-pages=3k", 2,
                  "unknown host page size");
    expectFailure(kEatsim + " --workload=mcf --vm --cores=0", 2,
                  "out of range");
}

TEST(CliEatsim, RejectsBadCoherenceFlags)
{
    expectFailure(kEatsim +
                      " --workload=mcf --cores=2 --coherence=bogus",
                  2, "unknown coherence mode");
    expectFailure(kEatsim + " --workload=mcf --coherence=hw", 2,
                  "--coherence requires --cores/--mix");
}

TEST(CliEatsim, ReportsNestedPagingCosts)
{
    const CmdResult result = run(
        kEatsim + " --workload=mcf --vm --instructions=20000");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("nested paging:"), std::string::npos)
        << result.output;
}

TEST(CliEatsim, LiteLineNamesTheL1AndEveryWayCount)
{
    // The way-lookup line follows the L1 structure that was built: the
    // 64-entry combined L1 runs at 64 down to 1 ways, not 4/2/1.
    const CmdResult combined =
        run(kEatsim + " --org=TLB_Lite --workload=gcc --combined-l1 "
                      "--instructions=200000 --fast-forward=10000");
    EXPECT_EQ(combined.exitCode, 0) << combined.output;
    EXPECT_NE(combined.output.find(
                  "L1-combined lookups at 64/32/16/8/4/2/1 ways: "),
              std::string::npos)
        << combined.output;

    const CmdResult split =
        run(kEatsim + " --org=TLB_Lite --workload=gcc "
                      "--instructions=200000 --fast-forward=10000");
    EXPECT_EQ(split.exitCode, 0) << split.output;
    EXPECT_NE(split.output.find("L1-4KB lookups at 4/2/1 ways: "),
              std::string::npos)
        << split.output;
}

TEST(CliEatbatch, RejectsBadVirtualizationAndCoherenceFlags)
{
    const std::string base =
        kEatbatch + " --out=" + eat::test::scratchDir() + "cli_vm.csv";
    expectFailure(base + " --vm=bogus", 2, "unknown host-table mode");
    expectFailure(base + " --host-pages=2m", 2,
                  "--host-pages requires --vm");
    expectFailure(base + " --coherence=hw", 2,
                  "--coherence requires --cores/--mix");
    expectFailure(base + " --cores=2 --mix=mcf,canneal --coherence=no",
                  2, "unknown coherence mode");
}

TEST(CliEatsim, RejectsBadProvenanceFlags)
{
    expectFailure(kEatsim + " --workload=mcf --prov-sample=abc", 2,
                  "--prov-sample");
    expectFailure(kEatsim + " --workload=mcf --provenance=" +
                      eat::test::scratchDir() +
                      "cli_prov.jsonl --prov-sample=0",
                  2, "must be >= 1");
    expectFailure(kEatsim + " --workload=mcf --prov-sample=4", 2,
                  "requires --provenance");
    expectFailure(kEatsim + " --workload=mcf --provenance=", 2,
                  "empty output path");
}

TEST(CliEatreport, RejectsBadUsage)
{
    expectFailure(kEatreport, 2, "usage");
    expectFailure(kEatreport + " --frobnicate", 2, "usage");
    // --telemetry cross-checking is part of reconciliation; alone it
    // would silently do nothing.
    expectFailure(kEatreport + " --prov=x --telemetry=y", 2,
                  "--reconcile");
}

TEST(CliEatreport, FailsOnMissingInput)
{
    expectFailure(kEatreport + " --prov=" + eat::test::scratchDir() +
                      "no_such.prov.jsonl",
                  1, "cannot open provenance file");
}

TEST(CliEatreport, FailsOnMalformedJsonl)
{
    // A malformed line followed by more data is corruption, not a torn
    // final write — hard error naming the line.
    const std::string bad = eat::test::scratchDir() + "bad.prov.jsonl";
    {
        std::ofstream out(bad, std::ios::trunc);
        out << "this is not json\n";
        out << "{\"schema\":\"eat.prov.event\",\"v\":1,\"i\":0,"
               "\"k\":\"interval\",\"core\":0,\"interval\":0,"
               "\"pj\":0}\n";
    }
    expectFailure(kEatreport + " --prov=" + bad, 1,
                  "malformed JSON line");

    // A stream of only garbage: the torn-line tolerance consumes the
    // one bad line, leaving no records at all.
    const std::string empty = eat::test::scratchDir() + "torn.prov.jsonl";
    {
        std::ofstream out(empty, std::ios::trunc);
        out << "{\"schema\":\"eat.prov.ev"; // torn mid-write
    }
    expectFailure(kEatreport + " --prov=" + empty, 1,
                  "no provenance records");

    // Valid JSON of the wrong schema is someone else's file.
    const std::string wrong = eat::test::scratchDir() + "wrong.prov.jsonl";
    {
        std::ofstream out(wrong, std::ios::trunc);
        out << "{\"schema\":\"eat.telemetry\",\"v\":2}\n";
    }
    expectFailure(kEatreport + " --prov=" + wrong, 1, "unknown schema");
}

TEST(CliEatfuzz, RejectsMalformedSeedFile)
{
    const std::string path = eat::test::scratchDir() + "bad_seed.json";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"schema\": \"eat.qa.scenario\", \"v\": 1}";
    }
    expectFailure(kEatfuzz + " --replay=" + path, 1, "missing");
}

} // namespace
