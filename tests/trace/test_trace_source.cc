#include <gtest/gtest.h>

#include "trace/trace_source.h"

namespace assoc {
namespace trace {
namespace {

TEST(MemRef, FlushMarker)
{
    MemRef f = MemRef::flush();
    EXPECT_TRUE(f.isFlush());
    EXPECT_FALSE(f.isWrite());
    EXPECT_FALSE(f.isInstruction());
}

TEST(MemRef, TypePredicates)
{
    MemRef r{0x100, RefType::Write, 3};
    EXPECT_TRUE(r.isWrite());
    EXPECT_FALSE(r.isFlush());
    MemRef i{0x200, RefType::Ifetch, 1};
    EXPECT_TRUE(i.isInstruction());
}

TEST(MemRef, TypeNames)
{
    EXPECT_STREQ(refTypeName(RefType::Read), "read");
    EXPECT_STREQ(refTypeName(RefType::Write), "write");
    EXPECT_STREQ(refTypeName(RefType::Ifetch), "ifetch");
    EXPECT_STREQ(refTypeName(RefType::Flush), "flush");
}

TEST(VectorTraceSource, EmptySourceEndsImmediately)
{
    VectorTraceSource src;
    MemRef r;
    EXPECT_FALSE(src.next(r));
}

TEST(VectorTraceSource, StreamsInOrder)
{
    VectorTraceSource src({{0x10, RefType::Read, 1},
                           {0x20, RefType::Write, 2}});
    MemRef r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x10u);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x20u);
    EXPECT_FALSE(src.next(r));
}

TEST(VectorTraceSource, ResetReplaysIdentically)
{
    VectorTraceSource src({{0x1, RefType::Read, 0},
                           {0x2, RefType::Ifetch, 0}});
    MemRef a, b;
    ASSERT_TRUE(src.next(a));
    src.reset();
    ASSERT_TRUE(src.next(b));
    EXPECT_EQ(a, b);
}

TEST(LimitedTraceSource, TruncatesStream)
{
    VectorTraceSource inner({{1, RefType::Read, 0},
                             {2, RefType::Read, 0},
                             {3, RefType::Read, 0}});
    LimitedTraceSource lim(inner, 2);
    MemRef r;
    EXPECT_TRUE(lim.next(r));
    EXPECT_TRUE(lim.next(r));
    EXPECT_FALSE(lim.next(r));
}

TEST(LimitedTraceSource, ResetResetsBothLayers)
{
    VectorTraceSource inner({{1, RefType::Read, 0},
                             {2, RefType::Read, 0}});
    LimitedTraceSource lim(inner, 1);
    MemRef r;
    EXPECT_TRUE(lim.next(r));
    EXPECT_FALSE(lim.next(r));
    lim.reset();
    ASSERT_TRUE(lim.next(r));
    EXPECT_EQ(r.addr, 1u);
}

TEST(LimitedTraceSource, LimitBeyondLengthIsHarmless)
{
    VectorTraceSource inner({{1, RefType::Read, 0}});
    LimitedTraceSource lim(inner, 100);
    MemRef r;
    EXPECT_TRUE(lim.next(r));
    EXPECT_FALSE(lim.next(r));
}

} // namespace
} // namespace trace
} // namespace assoc
