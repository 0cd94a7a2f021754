/**
 * @file
 * Tests for the statistics substrate: MPKI, histograms, tables, CSV
 * emission, and interval timelines.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/counter.hh"
#include "stats/csv.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"
#include "stats/timeline.hh"

namespace eat::stats
{
namespace
{

TEST(Mpki, Computation)
{
    EXPECT_DOUBLE_EQ(mpki(0, 1000), 0.0);
    EXPECT_DOUBLE_EQ(mpki(5, 1000), 5.0);
    EXPECT_DOUBLE_EQ(mpki(5, 2000), 2.5);
    EXPECT_DOUBLE_EQ(mpki(5, 0), 0.0); // no instructions: defined as 0
}

TEST(Histogram, RecordAndFractions)
{
    Histogram h(3);
    h.record(0, 3);
    h.record(2);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucketCount(0), 3u);
    EXPECT_EQ(h.bucketCount(1), 0u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.25);
}

TEST(Histogram, GrowsOnDemand)
{
    Histogram h;
    h.record(5);
    EXPECT_EQ(h.numBuckets(), 6u);
    EXPECT_EQ(h.bucketCount(5), 1u);
    EXPECT_EQ(h.bucketCount(99), 0u); // out of range reads are 0
}

TEST(Histogram, EmptyFractionIsZero)
{
    Histogram h(4);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.0);
}

TEST(Histogram, ResetClearsCounts)
{
    Histogram h(2);
    h.record(1, 7);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCount(1), 0u);
    EXPECT_EQ(h.numBuckets(), 2u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2.5"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);
}

TEST(TextTable, RejectsWrongArity)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(1.0, 0), "1");
    EXPECT_EQ(TextTable::percent(0.125, 1), "12.5%");
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.writeRow({"a", "b,c"});
    w.writeRow({"1", "2"});
    EXPECT_EQ(os.str(), "a,\"b,c\"\n1,2\n");
}

TEST(Timeline, RecordsAndAggregates)
{
    Timeline t(1000);
    t.record(1.0);
    t.record(3.0);
    t.record(2.0);
    EXPECT_EQ(t.numSamples(), 3u);
    EXPECT_DOUBLE_EQ(t.mean(), 2.0);
    EXPECT_DOUBLE_EQ(t.max(), 3.0);
    EXPECT_EQ(t.intervalInstructions(), 1000u);
}

TEST(Timeline, EmptyAggregates)
{
    Timeline t(10);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.max(), 0.0);
}

TEST(Timeline, DownsampleAverages)
{
    Timeline t(1);
    for (int i = 0; i < 8; ++i)
        t.record(static_cast<double>(i));
    const auto d = t.downsample(4);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_DOUBLE_EQ(d[0], 0.5);
    EXPECT_DOUBLE_EQ(d[3], 6.5);
}

TEST(Timeline, DownsampleShortSeriesIsIdentity)
{
    Timeline t(1);
    t.record(5.0);
    const auto d = t.downsample(10);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_DOUBLE_EQ(d[0], 5.0);
}

} // namespace
} // namespace eat::stats
