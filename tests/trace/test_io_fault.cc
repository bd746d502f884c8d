/**
 * @file
 * IO-fault injection tests: the FaultyStreamBuf wrapper itself, and
 * the contract every trace reader (din/ftr) owes when the *device*
 * fails rather than the data. An EIO must surface as a structured
 * error under every ErrorPolicy, because a hard fault mistaken for
 * end-of-file silently computes statistics over a prefix; skip mode
 * is for damaged bytes, not dying disks. A short read looks exactly
 * like a truncated file, so it gets the truncation contract: only an
 * exact prefix is ever delivered, and skip mode accounts for every
 * record it lost.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_file.h"
#include "util/io_fault.h"
#include "util/rng.h"

namespace assoc {
namespace trace {
namespace {

class IoFaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case: ctest runs cases concurrently.
        base_ = ::testing::TempDir() + "io_fault_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
    }

    void
    TearDown() override
    {
        for (const std::string &p : cleanup_)
            std::remove(p.c_str());
    }

    std::string
    scratch(const std::string &ext)
    {
        std::string p = base_ + ext;
        cleanup_.push_back(p);
        return p;
    }

    std::string base_;
    std::vector<std::string> cleanup_;
};

void
writeBytes(const std::string &path, std::size_t n)
{
    std::ofstream out(path, std::ios::binary);
    Pcg32 rng(0x10FA);
    for (std::size_t i = 0; i < n; ++i)
        out.put(static_cast<char>(rng.next()));
}

std::vector<MemRef>
someRecords(std::size_t n)
{
    std::vector<MemRef> recs(n);
    Pcg32 rng(0x10FB);
    for (MemRef &r : recs) {
        r.addr = rng.next();
        r.type = static_cast<RefType>(rng.below(3));
        r.pid = static_cast<std::uint8_t>(rng.below(4));
    }
    return recs;
}

ErrorPolicy
skipPolicy()
{
    ErrorPolicy p;
    p.mode = ErrorMode::Skip;
    return p;
}

TEST_F(IoFaultTest, ShortReadDeliversTheExactPrefix)
{
    std::string path = scratch(".raw");
    writeBytes(path, 10000);
    IoFaultPlan plan;
    plan.short_read_at = 1234;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    ASSERT_TRUE(in->good());
    std::vector<char> buf(16384);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    // Exactly the bytes before the fault, then a clean EOF — the
    // torn-tail shape, indistinguishable from a truncated file.
    EXPECT_EQ(in->gcount(), 1234);
    EXPECT_TRUE(in->eof());
    EXPECT_FALSE(in->bad());
}

TEST_F(IoFaultTest, IoErrorSetsBadbitNotEof)
{
    std::string path = scratch(".raw");
    writeBytes(path, 10000);
    IoFaultPlan plan;
    plan.io_error_at = 777;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    std::vector<char> buf(16384);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    EXPECT_LE(in->gcount(), 777);
    EXPECT_TRUE(in->bad());
}

TEST_F(IoFaultTest, FaultsReArmAfterSeek)
{
    // The fault is a property of the byte offset, not of elapsed
    // reads: readers rewind on reset() and must hit it again.
    std::string path = scratch(".raw");
    writeBytes(path, 5000);
    IoFaultPlan plan;
    plan.short_read_at = 600;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    std::vector<char> buf(8192);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    ASSERT_EQ(in->gcount(), 600);
    in->clear();
    in->seekg(0);
    ASSERT_TRUE(in->good());
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    EXPECT_EQ(in->gcount(), 600);
    // And bytes before the fault are readable after a short seek.
    in->clear();
    in->seekg(100);
    in->read(buf.data(), 200);
    EXPECT_EQ(in->gcount(), 200);
}

TEST_F(IoFaultTest, HardErrorTakesPrecedenceOverShortRead)
{
    std::string path = scratch(".raw");
    writeBytes(path, 5000);
    IoFaultPlan plan;
    plan.short_read_at = 4000;
    plan.io_error_at = 300;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    std::vector<char> buf(8192);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    EXPECT_TRUE(in->bad());
}

TEST_F(IoFaultTest, UnopenableFileSetsFailbit)
{
    IoFaultPlan plan;
    std::unique_ptr<std::istream> in =
        openFaultyFile(base_ + "/no/such/file", plan);
    EXPECT_TRUE(in->fail());
}

TEST_F(IoFaultTest, FtrShortReadIsATornTailWithEveryLostRecordCounted)
{
    std::string path = scratch(".ftr");
    std::vector<MemRef> recs = someRecords(2000);
    VectorTraceSource src(recs);
    FtrWriter::Options wopt;
    wopt.frame_records = 64;
    ASSERT_EQ(writeTraceFile(src, path, wopt), recs.size());

    IoFaultPlan plan;
    plan.short_read_at = 916; // inside the second frame
    // A short read is indistinguishable from a truncated file: skip
    // mode streams the intact first frame and counts every record
    // after it as lost.
    std::unique_ptr<TraceSource> in =
        openTraceFileWithFaults(path, skipPolicy(), plan);
    std::vector<MemRef> got;
    MemRef r;
    while (in->next(r))
        got.push_back(r);
    EXPECT_FALSE(in->failed()) << in->error().text();
    EXPECT_EQ(got, std::vector<MemRef>(recs.begin(), recs.begin() + 64));
    EXPECT_EQ(in->skippedRecords(), 2000u - 64u);

    // The lost footer alone is enough for the other policies to
    // reject the file.
    for (ErrorMode mode : {ErrorMode::FailFast, ErrorMode::Strict}) {
        SCOPED_TRACE(mode == ErrorMode::Strict ? "strict" : "fail-fast");
        ErrorPolicy policy;
        policy.mode = mode;
        in = openTraceFileWithFaults(path, policy, plan);
        while (in->next(r)) {
        }
        EXPECT_TRUE(in->failed());
        EXPECT_EQ(in->error().code(), ErrorCode::Data);
    }
}

TEST_F(IoFaultTest, EveryFormatSurfacesEioAsAHardError)
{
    struct Case
    {
        const char *ext;
        std::uint64_t fault_at;
    };
    for (const Case &c : {Case{".din", 500}, Case{".ftr", 500}}) {
        std::string path = scratch(c.ext);
        std::vector<MemRef> recs = someRecords(2000);
        VectorTraceSource src(recs);
        writeTraceFile(src, path);
        IoFaultPlan plan;
        plan.io_error_at = c.fault_at;
        std::unique_ptr<TraceSource> in =
            openTraceFileWithFaults(path, skipPolicy(), plan);
        MemRef r;
        while (in->next(r)) {
        }
        EXPECT_TRUE(in->failed())
            << c.ext << ": EIO masqueraded as end-of-file";
        EXPECT_EQ(in->error().code(), ErrorCode::Io) << c.ext;
        EXPECT_FALSE(in->error().text().empty()) << c.ext;
    }
}

} // namespace
} // namespace trace
} // namespace assoc
