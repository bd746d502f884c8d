#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mem/hierarchy.h"
#include "trace/atum_like.h"
#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"
#include "trace/sampling.h"
#include "trace/synthetic.h"
#include "util/cancel.h"
#include "util/logging.h"

namespace assoc {
namespace trace {
namespace {

TEST(WindowSampling, PassesOnWindowsDropsOffWindows)
{
    std::vector<MemRef> refs;
    for (Addr a = 0; a < 10; ++a)
        refs.push_back({a, RefType::Read, 0});
    VectorTraceSource inner(std::move(refs));
    WindowSampledSource sampled(inner, 2, 3);
    // Period 5: positions 0,1 pass; 2,3,4 drop.
    std::vector<Addr> got;
    MemRef r;
    while (sampled.next(r))
        got.push_back(r.addr);
    EXPECT_EQ(got, (std::vector<Addr>{0, 1, 5, 6}));
}

TEST(WindowSampling, FlushMarkersAlwaysPass)
{
    VectorTraceSource inner({{0, RefType::Read, 0},
                             {1, RefType::Read, 0},
                             MemRef::flush(),
                             {2, RefType::Read, 0},
                             {3, RefType::Read, 0}});
    WindowSampledSource sampled(inner, 1, 1);
    std::vector<MemRef> got;
    MemRef r;
    while (sampled.next(r))
        got.push_back(r);
    // Positions: 0 pass, 1 drop, flush pass, 2 pass, 3 drop.
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].addr, 0u);
    EXPECT_TRUE(got[1].isFlush());
    EXPECT_EQ(got[2].addr, 2u);
}

TEST(WindowSampling, ZeroOnWindowIsFatal)
{
    VectorTraceSource inner;
    EXPECT_THROW(WindowSampledSource(inner, 0, 1), FatalError);
}

TEST(WindowSampling, ResetReplays)
{
    VectorTraceSource inner({{1, RefType::Read, 0},
                             {2, RefType::Read, 0}});
    WindowSampledSource sampled(inner, 1, 1);
    MemRef a, b;
    ASSERT_TRUE(sampled.next(a));
    sampled.reset();
    ASSERT_TRUE(sampled.next(b));
    EXPECT_EQ(a, b);
}

TEST(WindowSampling, MissRatioApproximatesFullTrace)
{
    // Time sampling keeps within-window locality: the L1 miss
    // ratio on a half-length sampled trace lands near the full
    // trace's (cold-start bias makes it slightly higher).
    AtumLikeConfig cfg;
    cfg.segments = 2;
    cfg.refs_per_segment = 100000;

    auto missRatio = [&](bool sample) {
        AtumLikeGenerator gen(cfg);
        WindowSampledSource sampled(gen, 10000, 10000);
        TraceSource &src =
            sample ? static_cast<TraceSource &>(sampled) : gen;
        mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                                  mem::CacheGeometry(262144, 32, 4),
                                  true};
        mem::TwoLevelHierarchy h(hcfg);
        h.run(src);
        return h.stats().l1MissRatio();
    };
    double full = missRatio(false);
    double sampled = missRatio(true);
    EXPECT_NEAR(sampled, full, 0.25 * full + 0.01);
}

TEST(SetSampling, KeepsOnlyChosenSets)
{
    mem::CacheGeometry geom(1024, 16, 1); // 64 sets
    SequentialScan scan(0, 16, 1024);
    SetSampledSource sampled(scan, geom.blockBytes(),
                             geom.sets(), 8, 4); // sets 8..11
    MemRef r;
    std::uint64_t n = 0;
    while (sampled.next(r)) {
        std::uint32_t set = geom.setOf(geom.blockAddrOf(r.addr));
        EXPECT_GE(set, 8u);
        EXPECT_LT(set, 12u);
        ++n;
    }
    // 4 of 64 sets of a uniform sweep: exactly 1/16 survives.
    EXPECT_EQ(n, 1024u / 16);
    EXPECT_EQ(sampled.consumed(), 1024u);
}

TEST(SetSampling, RangeValidation)
{
    mem::CacheGeometry geom(1024, 16, 1); // 64 sets
    VectorTraceSource inner;
    EXPECT_THROW(SetSampledSource(inner, 16, 64, 0, 0), FatalError);
    EXPECT_THROW(SetSampledSource(inner, 16, 64, 64, 1), FatalError);
    EXPECT_THROW(SetSampledSource(inner, 16, 64, 60, 8), FatalError);
    EXPECT_THROW(SetSampledSource(inner, 24, 64, 0, 1), FatalError);
    EXPECT_THROW(SetSampledSource(inner, 16, 63, 0, 1), FatalError);
}

TEST(SetSampling, MissRatioNearlyUnbiased)
{
    // Per-set behaviour is exact, so the local miss ratio measured
    // on a quarter of the sets approximates the full ratio.
    AtumLikeConfig cfg;
    cfg.segments = 2;
    cfg.refs_per_segment = 100000;
    mem::CacheGeometry l1(16384, 16, 1);

    auto l1Miss = [&](bool sample) {
        AtumLikeGenerator gen(cfg);
        SetSampledSource sampled(gen, l1.blockBytes(), l1.sets(),
                                 0, l1.sets() / 4);
        TraceSource &src =
            sample ? static_cast<TraceSource &>(sampled) : gen;
        mem::HierarchyConfig hcfg{l1,
                                  mem::CacheGeometry(262144, 32, 4),
                                  true};
        mem::TwoLevelHierarchy h(hcfg);
        h.run(src);
        return h.stats().l1MissRatio();
    };
    double full = l1Miss(false);
    double sampled = l1Miss(true);
    EXPECT_NEAR(sampled, full, 0.2 * full + 0.01);
}

TEST(SamplingFactories, BadGeometryIsAStructuredUsageError)
{
    // The make() factories return the same validation the throwing
    // constructors enforce, as an Expected a sweep job can report
    // as a failed JobResult instead of aborting the process.
    VectorTraceSource inner;
    Expected<WindowSampledSource> w =
        WindowSampledSource::make(inner, 0, 1);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.error().code(), ErrorCode::Usage);

    Expected<SetSampledSource> s =
        SetSampledSource::make(inner, 16, 64, 60, 8);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code(), ErrorCode::Usage);

    EXPECT_EQ(WindowSampledSource::validate(0, 1).code(),
              ErrorCode::Usage);
    EXPECT_TRUE(WindowSampledSource::validate(1, 1).ok());
    EXPECT_EQ(SetSampledSource::validate(24, 64, 0, 1).code(),
              ErrorCode::Usage);
    EXPECT_TRUE(SetSampledSource::validate(16, 64, 0, 16).ok());
}

TEST(SamplingFactories, GoodGeometryYieldsAWorkingSource)
{
    VectorTraceSource inner({{0x00, RefType::Read, 0},
                             {0x10, RefType::Read, 0},
                             {0x20, RefType::Read, 0}});
    Expected<WindowSampledSource> w =
        WindowSampledSource::make(inner, 1, 1);
    ASSERT_TRUE(w.ok());
    WindowSampledSource src = w.take();
    MemRef r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x00u);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x20u);
}

// -----------------------------------------------------------------
// Wrapper transparency over a real file-backed source: a sampled
// view of a damaged ftr trace must report the reader's structured
// error, its exact skip accounting, and honor attachments made on
// the wrapper (docs/TRACES.md, "Transparent wrappers").
// -----------------------------------------------------------------

class SampledFtrTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "sampling_ftr_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".ftr";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Write @p n sequential records in frames of @p frame_records. */
    void
    writeTrace(std::size_t n, std::uint32_t frame_records)
    {
        std::vector<MemRef> refs;
        for (std::size_t i = 0; i < n; ++i)
            refs.push_back({static_cast<Addr>(i * 32), RefType::Read, 0});
        VectorTraceSource src(std::move(refs));
        FtrWriter::Options opt;
        opt.frame_records = frame_records;
        Expected<std::uint64_t> w = writeFtr(src, path_, opt);
        ASSERT_TRUE(w.ok()) << w.error().text();
    }

    /** Flip one byte in the middle of the frame data. */
    void
    corruptMidFile()
    {
        std::fstream f(path_, std::ios::in | std::ios::out |
                                  std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(0, std::ios::end);
        std::streampos size = f.tellg();
        std::streampos at = size / 2;
        f.seekg(at);
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0xff);
        f.seekp(at);
        f.write(&b, 1);
    }

    std::string path_;
};

TEST_F(SampledFtrTest, InnerFailurePropagatesThroughEveryWrapper)
{
    // A FailFast reader over a corrupt file stops with a Data
    // error; each wrapper must surface it, so throwIfFailed throws
    // the inner structured error instead of treating the stop as a
    // clean end-of-trace.
    writeTrace(4096, 256);
    corruptMidFile();
    ErrorPolicy policy; // FailFast

    {
        FtrTraceSource inner(path_, policy);
        WindowSampledSource wrapped(inner, 1, 1);
        MemRef r;
        while (wrapped.next(r)) {
        }
        ASSERT_TRUE(wrapped.failed());
        EXPECT_EQ(wrapped.error().code(), ErrorCode::Data);
        EXPECT_EQ(wrapped.error().message(),
                  inner.error().message());
        EXPECT_THROW(throwIfFailed(wrapped), ErrorException);
    }
    {
        FtrTraceSource inner(path_, policy);
        SetSampledSource wrapped(inner, 32, 8, 0, 8);
        MemRef r;
        while (wrapped.next(r)) {
        }
        ASSERT_TRUE(wrapped.failed());
        EXPECT_EQ(wrapped.error().code(), ErrorCode::Data);
        EXPECT_THROW(throwIfFailed(wrapped), ErrorException);
    }
    {
        FtrTraceSource inner(path_, policy);
        LimitedTraceSource wrapped(inner, 1u << 20);
        MemRef r;
        while (wrapped.next(r)) {
        }
        ASSERT_TRUE(wrapped.failed());
        EXPECT_EQ(wrapped.error().code(), ErrorCode::Data);
        EXPECT_THROW(throwIfFailed(wrapped), ErrorException);
    }
}

TEST_F(SampledFtrTest, SkipAccountingIsRecordExactThroughWrappers)
{
    // Skip mode loses exactly the one damaged frame; the wrapper
    // reports the same record-exact number the reader does.
    writeTrace(4096, 256);
    corruptMidFile();
    ErrorPolicy policy;
    policy.mode = ErrorMode::Skip;

    FtrTraceSource inner(path_, policy);
    WindowSampledSource wrapped(inner, 1, 0); // pass-through
    MemRef r;
    std::uint64_t delivered = 0;
    while (wrapped.next(r))
        ++delivered;
    EXPECT_FALSE(wrapped.failed());
    EXPECT_EQ(wrapped.skippedRecords(), 256u);
    EXPECT_EQ(wrapped.skippedRecords(), inner.skippedRecords());
    EXPECT_EQ(delivered, 4096u - 256u);
}

TEST_F(SampledFtrTest, CancelTokenAttachedToWrapperReachesReader)
{
    // setCancelToken on the wrapper must reach the reader that
    // actually polls it: a cancelled sampled run stops mid-stream
    // with the reader's structured Cancelled error.
    writeTrace(8192, 64);
    FtrTraceSource inner(path_);
    SetSampledSource wrapped(inner, 32, 8, 0, 8);
    CancelToken token;
    wrapped.setCancelToken(&token);
    token.cancel();

    MemRef r;
    std::uint64_t delivered = 0;
    while (wrapped.next(r))
        ++delivered;
    ASSERT_TRUE(wrapped.failed());
    EXPECT_EQ(wrapped.error().code(), ErrorCode::Cancelled);
    EXPECT_LT(delivered, 8192u);
}

TEST_F(SampledFtrTest, NextBatchMatchesNextThroughSampling)
{
    // The nextBatch contract (identical stream to repeated next())
    // must survive wrapping: batched pulls through a sampled view
    // of a file reader see the byte-identical sampled stream.
    writeTrace(1000, 128);

    std::vector<MemRef> one_by_one;
    {
        FtrTraceSource inner(path_);
        WindowSampledSource wrapped(inner, 3, 2);
        MemRef r;
        while (wrapped.next(r))
            one_by_one.push_back(r);
    }
    std::vector<MemRef> batched;
    {
        FtrTraceSource inner(path_);
        WindowSampledSource wrapped(inner, 3, 2);
        MemRef buf[7];
        std::size_t n;
        while ((n = wrapped.nextBatch(buf, 7)) > 0)
            batched.insert(batched.end(), buf, buf + n);
    }
    ASSERT_EQ(one_by_one.size(), batched.size());
    EXPECT_TRUE(std::equal(one_by_one.begin(), one_by_one.end(),
                           batched.begin()));
    EXPECT_EQ(one_by_one.size(), 600u); // 3 of every 5
}

TEST(SetSampling, FlushMarkersPass)
{
    mem::CacheGeometry geom(1024, 16, 1);
    VectorTraceSource inner({MemRef::flush()});
    SetSampledSource sampled(inner, geom.blockBytes(),
                             geom.sets(), 0, 1);
    MemRef r;
    ASSERT_TRUE(sampled.next(r));
    EXPECT_TRUE(r.isFlush());
}

} // namespace
} // namespace trace
} // namespace assoc
