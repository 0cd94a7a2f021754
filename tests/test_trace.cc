/**
 * @file
 * Tests for binary trace recording and replay.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "workloads/trace.hh"
#include "scratch_dir.hh"

namespace eat::workloads
{
namespace
{

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = test::scratchDir() + "eat_trace_test.bin";
    }

    std::string path_;
};

TEST_F(TraceTest, RoundTripsOperations)
{
    {
        TraceWriter w(path_);
        w.write({0x1000, 3});
        w.write({0xfeedbeefcafe, 1});
        w.write({0x7fffffffffff, 100000});
        EXPECT_EQ(w.recordsWritten(), 3u);
    }
    TraceReader r(path_);
    EXPECT_EQ(r.totalRecords(), 3u);
    auto a = r.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->vaddr, 0x1000u);
    EXPECT_EQ(a->instrGap, 3u);
    auto b = r.next();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->vaddr, 0xfeedbeefcafeull);
    auto c = r.next();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->instrGap, 100000u);
    EXPECT_FALSE(r.next().has_value());
    EXPECT_EQ(r.recordsRead(), 3u);
}

TEST_F(TraceTest, EmptyTraceIsValid)
{
    {
        TraceWriter w(path_);
    }
    TraceReader r(path_);
    EXPECT_EQ(r.totalRecords(), 0u);
    EXPECT_FALSE(r.next().has_value());
}

TEST_F(TraceTest, ExplicitCloseIsIdempotent)
{
    TraceWriter w(path_);
    w.write({1, 1});
    EXPECT_TRUE(w.close().ok());
    EXPECT_TRUE(w.close().ok());
    EXPECT_THROW(w.write({2, 1}), std::logic_error);
    TraceReader r(path_);
    EXPECT_EQ(r.totalRecords(), 1u);
}

TEST_F(TraceTest, CloseReportsWriteFailure)
{
    TraceWriter w("/dev/full");
    w.write({1, 1});
    const auto s = w.close();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("write failure"), std::string::npos);
}

TEST_F(TraceTest, RejectsMissingFile)
{
    EXPECT_THROW(TraceReader("/nonexistent/trace.bin"),
                 std::runtime_error);
}

TEST_F(TraceTest, RejectsWrongMagic)
{
    {
        std::ofstream os(path_, std::ios::binary);
        os << "NOTATRACE-AT-ALL";
    }
    EXPECT_THROW(TraceReader r(path_), std::runtime_error);
}

TEST_F(TraceTest, RejectsShortHeader)
{
    {
        std::ofstream os(path_, std::ios::binary);
        os << "EATT"; // 4 of the 16 header bytes
    }
    EXPECT_THROW(TraceReader r(path_), std::runtime_error);
}

TEST_F(TraceTest, RejectsUnsupportedVersion)
{
    {
        TraceWriter w(path_);
        w.write({0x1000, 1});
    }
    // Bump the on-disk version field (bytes 8..11, little endian).
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekp(8);
        const char v2[4] = {2, 0, 0, 0};
        f.write(v2, sizeof(v2));
    }
    try {
        TraceReader r(path_);
        FAIL() << "expected a version error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST_F(TraceTest, DetectsTruncatedFile)
{
    {
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < 100; ++i)
            w.write({i << 12, 1});
    }
    // Chop the last record in half: the header still promises 100.
    {
        std::ifstream in(path_, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        bytes.resize(bytes.size() - 6);
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    try {
        TraceReader r(path_);
        FAIL() << "expected a truncation error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
}

TEST_F(TraceTest, DetectsTrailingGarbage)
{
    {
        TraceWriter w(path_);
        w.write({0x1000, 1});
    }
    {
        std::ofstream os(path_, std::ios::binary | std::ios::app);
        os << "extra";
    }
    EXPECT_THROW(TraceReader r(path_), std::runtime_error);
}

TEST_F(TraceTest, RejectsAddressesThePageTableCannotMap)
{
    // 0x7fffffffffff (the top 48-bit address) loads; bit 50 set on
    // record 1 would walk to its 48-bit alias, so decoding stops there.
    {
        TraceWriter w(path_);
        w.write({0x7fffffffffff, 1});
        w.write({(std::uint64_t{1} << 50) | 0x20ab3da8, 1});
    }
    TraceReader r(path_);
    ASSERT_TRUE(r.next().has_value());
    try {
        (void)r.next();
        FAIL() << "expected an address-width error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("record 1 of 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("0x4000020ab3da8"), std::string::npos) << msg;
        EXPECT_NE(msg.find("48-bit"), std::string::npos) << msg;
    }
}

TEST_F(TraceTest, RoundTripsAtExactBlockBoundaries)
{
    // The buffered reader/writer move records in ~64 KiB blocks of
    // 5461 records; exercise one record below, at, and above the
    // boundary so refill/flush edges cannot regress silently.
    constexpr std::uint64_t kBlock = (64 * 1024) / 12;
    for (const std::uint64_t n : {kBlock - 1, kBlock, kBlock + 1}) {
        {
            TraceWriter w(path_);
            for (std::uint64_t i = 0; i < n; ++i)
                w.write({i << 12, 1});
            ASSERT_TRUE(w.close().ok());
        }
        TraceReader r(path_);
        ASSERT_EQ(r.totalRecords(), n);
        for (std::uint64_t i = 0; i < n; ++i) {
            auto op = r.next();
            ASSERT_TRUE(op.has_value());
            ASSERT_EQ(op->vaddr, i << 12);
        }
        EXPECT_FALSE(r.next().has_value());
    }
}

TEST_F(TraceTest, LargeTraceRoundTrip)
{
    constexpr std::uint64_t kN = 50000;
    {
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < kN; ++i)
            w.write({i << 12, (i % 7) + 1});
    }
    TraceReader r(path_);
    EXPECT_EQ(r.totalRecords(), kN);
    for (std::uint64_t i = 0; i < kN; ++i) {
        auto op = r.next();
        ASSERT_TRUE(op.has_value());
        ASSERT_EQ(op->vaddr, i << 12);
        ASSERT_EQ(op->instrGap, (i % 7) + 1);
    }
    EXPECT_FALSE(r.next().has_value());
}

} // namespace
} // namespace eat::workloads
