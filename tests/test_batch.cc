/**
 * @file
 * Tests for the fault-tolerant batch runner: grids complete, a failing
 * or hanging cell costs one row (not the sweep), the CSV on disk is
 * always complete, --resume replays the checkpoint journal (and only
 * the journal), and the -jN process pool changes wall clock only — row
 * order and every non-timing column are byte-identical to a serial
 * sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/batch.hh"
#include "scratch_dir.hh"

namespace eat::sim
{
namespace
{

class BatchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        csvPath_ = test::scratchDir() + "eat_batch_test.csv";
    }

    /** Small, fast sweep options. */
    BatchOptions
    quickOptions()
    {
        BatchOptions options;
        options.workloadNames = {"mcf", "astar"};
        options.orgs = {core::MmuOrg::Thp, core::MmuOrg::Rmm};
        options.spec.fastForward = 10'000;
        options.spec.simInstructions = 100'000;
        options.outPath = csvPath_;
        return options;
    }

    /** Read the CSV back as raw lines. */
    std::vector<std::string>
    csvLines()
    {
        std::ifstream in(csvPath_);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    }

    std::string csvPath_;
};

TEST_F(BatchTest, CompletesAFullGrid)
{
    std::ostringstream log;
    const auto r = runBatch(quickOptions(), log);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().ok, 4u);
    EXPECT_EQ(r.value().failed, 0u);
    EXPECT_EQ(r.value().timedOut, 0u);
    EXPECT_EQ(r.value().total(), 4u);

    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 5u); // header + 4 rows
    EXPECT_EQ(lines[0].substr(0, 19), "workload,org,status");
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_NE(lines[i].find(",ok,"), std::string::npos) << lines[i];
}

TEST_F(BatchTest, FailingRunDoesNotAbortTheSweep)
{
    auto options = quickOptions();
    options.failCell = "mcf:RMM";
    std::ostringstream log;
    const auto r = runBatch(options, log);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().ok, 3u);
    EXPECT_EQ(r.value().failed, 1u);
    EXPECT_EQ(r.value().total(), 4u);

    // The CSV is complete and intact: all four rows, the failed one
    // labeled with its error, and no leftover temp file.
    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 5u);
    unsigned failedRows = 0;
    for (const auto &line : lines) {
        if (line.find("mcf,RMM,failed") == 0) {
            ++failedRows;
            EXPECT_NE(line.find("deliberate failure"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(failedRows, 1u);
    std::ifstream tmp(csvPath_ + ".tmp");
    EXPECT_FALSE(tmp.good());
}

TEST_F(BatchTest, WatchdogKillsAHangingRun)
{
    auto options = quickOptions();
    options.workloadNames = {"mcf"};
    options.orgs = {core::MmuOrg::Thp, core::MmuOrg::Rmm};
    options.failCell = "mcf:THP:hang";
    options.engine.timeoutSeconds = 1;
    std::ostringstream log;
    const auto r = runBatch(options, log);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().timedOut, 1u);
    EXPECT_EQ(r.value().ok, 1u);

    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 3u);
    bool sawTimeout = false;
    for (const auto &line : lines)
        sawTimeout = sawTimeout ||
                     line.find("mcf,THP,timeout") == 0;
    EXPECT_TRUE(sawTimeout);
}

TEST_F(BatchTest, CrashAidReachesAMixCell)
{
    // Mix cells run through the one cell executor, testing aids
    // included: the crashed cell fails, its sibling completes.
    auto options = quickOptions();
    options.spec.cores = 2;
    options.failCell = "mcf,astar:RMM:crash";
    std::ostringstream log;
    const auto r = runBatch(options, log);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().ok, 1u);
    EXPECT_EQ(r.value().failed, 1u);

    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[2].find("RMM,failed"), std::string::npos) << lines[2];
    EXPECT_NE(lines[2].find("child killed by signal 9"), std::string::npos)
        << lines[2];
}

TEST_F(BatchTest, ResumeReusesCompletedRows)
{
    auto options = quickOptions();
    options.failCell = "astar:THP";
    std::ostringstream log1;
    const auto first = runBatch(options, log1);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().ok, 3u);
    EXPECT_EQ(first.value().failed, 1u);

    // Second sweep with --resume: only the failed cell re-runs.
    options.failCell.clear();
    options.engine.resume = true;
    std::ostringstream log2;
    const auto second = runBatch(options, log2);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().engine.replayed, 3u);
    EXPECT_EQ(second.value().ok, 1u);
    EXPECT_EQ(second.value().failed, 0u);

    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 5u);
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_NE(lines[i].find(",ok,"), std::string::npos) << lines[i];
}

TEST_F(BatchTest, ResumeWithoutAJournalRunsTheWholeGrid)
{
    // Rows of a sweep over another instruction window must not be
    // spliced in: without the fingerprinted journal, a resume starts
    // over.
    auto options = quickOptions();
    std::ostringstream log1;
    const auto first = runBatch(options, log1);
    ASSERT_TRUE(first.ok()) << first.status().message();
    EXPECT_EQ(first.value().ok, 4u);

    options.spec.simInstructions = 200'000;
    options.engine.journalPath = csvPath_ + ".fresh.journal";
    options.engine.resume = true;
    std::ostringstream log2;
    const auto second = runBatch(options, log2);
    ASSERT_TRUE(second.ok()) << second.status().message();
    EXPECT_EQ(second.value().engine.replayed, 0u);
    EXPECT_EQ(second.value().ok, 4u);

    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 5u);
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_NE(lines[i].find(",200000,"), std::string::npos) << lines[i];
}

TEST_F(BatchTest, RejectsUnknownWorkloadUpFront)
{
    auto options = quickOptions();
    options.workloadNames = {"mcf", "no-such-workload"};
    std::ostringstream log;
    const auto r = runBatch(options, log);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("no-such-workload"),
              std::string::npos);
    // Nothing ran, nothing was written.
    std::ifstream out(csvPath_);
    EXPECT_FALSE(out.good());
}

TEST_F(BatchTest, RejectsMissingOutputPath)
{
    auto options = quickOptions();
    options.outPath.clear();
    std::ostringstream log;
    EXPECT_FALSE(runBatch(options, log).ok());
}

/** Split a CSV line of unquoted cells (all these tests produce). */
std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream is(line);
    while (std::getline(is, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.push_back("");
    return cells;
}

TEST_F(BatchTest, ParallelSweepIsByteIdenticalToSerial)
{
    // Same grid at -j1 and -j4: identical row order, and every column
    // byte-for-byte equal except the wall-clock-derived ones
    // (wall_seconds, sim_kips).
    auto serialOptions = quickOptions();
    serialOptions.engine.jobs = 1;
    std::ostringstream log1;
    ASSERT_TRUE(runBatch(serialOptions, log1).ok());
    const auto serial = csvLines();

    const std::string parallelPath =
        test::scratchDir() + "eat_batch_test_j4.csv";
    auto parallelOptions = quickOptions();
    parallelOptions.engine.jobs = 4;
    parallelOptions.outPath = parallelPath;
    std::ostringstream log4;
    const auto r = runBatch(parallelOptions, log4);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().ok, 4u);

    std::vector<std::string> parallel;
    {
        std::ifstream in(parallelPath);
        std::string line;
        while (std::getline(in, line))
            parallel.push_back(line);
    }

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 5u); // header + 4 rows
    EXPECT_EQ(serial[0], parallel[0]);
    const auto &timing = batchTimingColumns();
    for (std::size_t i = 1; i < serial.size(); ++i) {
        const auto a = splitCells(serial[i]);
        const auto b = splitCells(parallel[i]);
        ASSERT_EQ(a.size(), b.size()) << serial[i];
        for (std::size_t col = 0; col < a.size(); ++col) {
            if (std::find(timing.begin(), timing.end(), col) !=
                timing.end())
                continue;
            EXPECT_EQ(a[col], b[col])
                << "row " << i << " col " << col << " ("
                << batchCsvHeader()[col] << ")";
        }
    }
}

TEST_F(BatchTest, ResumeAtADifferentJobCountIsByteIdentical)
{
    // The uninterrupted reference: the whole grid serially (-j1).
    const std::string referencePath =
        test::scratchDir() + "eat_batch_test_ref.csv";
    auto referenceOptions = quickOptions();
    referenceOptions.engine.jobs = 1;
    referenceOptions.outPath = referencePath;
    std::ostringstream log0;
    ASSERT_TRUE(runBatch(referenceOptions, log0).ok());
    std::vector<std::string> reference;
    {
        std::ifstream in(referencePath);
        std::string line;
        while (std::getline(in, line))
            reference.push_back(line);
    }

    // A partial sweep at -j2: one cell fails, three complete.
    auto options = quickOptions();
    options.engine.jobs = 2;
    options.failCell = "astar:RMM";
    std::ostringstream log1;
    const auto first = runBatch(options, log1);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().ok, 3u);
    EXPECT_EQ(first.value().failed, 1u);

    // Resume at -j3: only the failed cell re-runs.
    options.failCell.clear();
    options.engine.resume = true;
    options.engine.jobs = 3;
    std::ostringstream log2;
    const auto second = runBatch(options, log2);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().engine.replayed, 3u);
    EXPECT_EQ(second.value().ok, 1u);

    // The stitched-together CSV must be byte-identical to the
    // uninterrupted serial sweep outside the timing columns: same row
    // order, same metrics, no trace of the interruption.
    const auto resumed = csvLines();
    ASSERT_EQ(resumed.size(), reference.size());
    EXPECT_EQ(resumed[0], reference[0]);
    const auto &timing = batchTimingColumns();
    for (std::size_t i = 1; i < resumed.size(); ++i) {
        const auto a = splitCells(reference[i]);
        const auto b = splitCells(resumed[i]);
        ASSERT_EQ(a.size(), b.size()) << resumed[i];
        for (std::size_t col = 0; col < a.size(); ++col) {
            if (std::find(timing.begin(), timing.end(), col) !=
                timing.end())
                continue;
            EXPECT_EQ(a[col], b[col])
                << "row " << i << " col " << col << " ("
                << batchCsvHeader()[col] << ")";
        }
    }
}

TEST_F(BatchTest, HangingCellInAFullPoolCostsOnlyThatCell)
{
    // All four cells in flight at once; one hangs. The watchdog kills
    // exactly that child and the other three land normally.
    auto options = quickOptions();
    options.engine.jobs = 4;
    options.failCell = "mcf:THP:hang";
    options.engine.timeoutSeconds = 2;
    std::ostringstream log;
    const auto r = runBatch(options, log);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().ok, 3u);
    EXPECT_EQ(r.value().timedOut, 1u);
    EXPECT_EQ(r.value().total(), 4u);

    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 5u);
    unsigned okRows = 0, timeoutRows = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].find(",ok,") != std::string::npos)
            ++okRows;
        if (lines[i].find("mcf,THP,timeout") == 0) {
            ++timeoutRows;
            EXPECT_EQ(splitCells(lines[i]).back(),
                      "killed by the 2s watchdog")
                << lines[i];
        }
    }
    EXPECT_EQ(okRows, 3u);
    EXPECT_EQ(timeoutRows, 1u);
}

TEST_F(BatchTest, AutoJobsSweepCompletes)
{
    auto options = quickOptions();
    options.engine.jobs = 0; // auto: hardware concurrency
    std::ostringstream log;
    const auto r = runBatch(options, log);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().ok, 4u);
}

TEST(BatchHeader, TimingColumnsAreExactlyWallSecondsAndSimKips)
{
    const auto &header = batchCsvHeader();
    const auto &timing = batchTimingColumns();
    ASSERT_EQ(timing.size(), 2u);
    EXPECT_EQ(header[timing[0]], "wall_seconds");
    EXPECT_EQ(header[timing[1]], "sim_kips");
}

TEST_F(BatchTest, HeaderMatchesRowWidth)
{
    std::ostringstream log;
    auto options = quickOptions();
    options.workloadNames = {"mcf"};
    options.orgs = {core::MmuOrg::Thp};
    ASSERT_TRUE(runBatch(options, log).ok());

    const auto lines = csvLines();
    ASSERT_EQ(lines.size(), 2u);
    const auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(lines[0]), count(lines[1]));
}

} // namespace
} // namespace eat::sim
