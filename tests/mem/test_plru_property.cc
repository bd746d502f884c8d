/**
 * @file
 * Property tests for the Tree-PLRU replacement policy, driven
 * through the public cache API (fill to warm a set, touch to update
 * the tree, victimWay to read the policy's choice):
 *
 *  - the just-touched way is never the next victim (the defining
 *    pseudo-LRU guarantee, for every associativity >= 2);
 *  - repeatedly victimizing + touching the victim cycles fairly
 *    through all a ways before repeating any (the tree has no
 *    starvation corner).
 */

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.h"
#include "util/rng.h"

using namespace assoc;
using namespace assoc::mem;

namespace {

/** One-set TreePlru cache with every way valid. */
WriteBackCache
warmPlruCache(unsigned a)
{
    const std::uint32_t block = 16;
    WriteBackCache cache(CacheGeometry(block * a, block, a),
                         ReplPolicy::TreePlru);
    for (unsigned i = 0; i < a; ++i)
        cache.fill(static_cast<BlockAddr>(i), false);
    EXPECT_EQ(cache.validCount(0), a);
    return cache;
}

class PlruProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(PlruProperty, JustTouchedWayIsNeverTheVictim)
{
    const unsigned a = GetParam();
    WriteBackCache cache = warmPlruCache(a);
    Pcg32 rng(0x91u + a);
    for (int step = 0; step < 2000; ++step) {
        const int way = static_cast<int>(rng.below(a));
        cache.touch(0, way);
        EXPECT_NE(cache.victimWay(0), way)
            << "assoc " << a << " step " << step;
    }
}

TEST_P(PlruProperty, VictimsCycleThroughAllWaysFairly)
{
    const unsigned a = GetParam();
    WriteBackCache cache = warmPlruCache(a);
    // Touching the victim flips every tree node on its root-to-leaf
    // path, so successive victims must sweep all a ways before any
    // repeats — for several consecutive sweeps.
    for (int round = 0; round < 4; ++round) {
        std::set<int> seen;
        for (unsigned i = 0; i < a; ++i) {
            int v = cache.victimWay(0);
            ASSERT_GE(v, 0);
            ASSERT_LT(v, static_cast<int>(a));
            EXPECT_TRUE(seen.insert(v).second)
                << "victim " << v << " repeated before all " << a
                << " ways were cycled (round " << round << ")";
            cache.touch(0, v);
        }
        EXPECT_EQ(seen.size(), a);
    }
}

TEST_P(PlruProperty, VictimIsStableWithoutIntermediateTouches)
{
    // victimWay() is const: asking twice must answer the same.
    const unsigned a = GetParam();
    WriteBackCache cache = warmPlruCache(a);
    Pcg32 rng(0x7eu + a);
    for (int step = 0; step < 100; ++step) {
        cache.touch(0, static_cast<int>(rng.below(a)));
        EXPECT_EQ(cache.victimWay(0), cache.victimWay(0));
    }
}

INSTANTIATE_TEST_SUITE_P(Assoc, PlruProperty,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u,
                                           64u));

TEST(PlruProperty, InvalidFramesAreVictimizedFirst)
{
    // With an invalid frame present the policy must not even be
    // consulted: fills take the empty frame (inexpensive, and what
    // the packed-order suffix invariant guarantees is available).
    WriteBackCache cache = warmPlruCache(8);
    ASSERT_GE(cache.findWay(3), 0);
    cache.invalidate(3); // clean line: returns false, still drops it
    ASSERT_LT(cache.findWay(3), 0);
    EXPECT_EQ(cache.victimWay(0), cache.mruOrder(0).back());
    FillResult fr = cache.fill(100, false);
    EXPECT_FALSE(fr.evicted);
    EXPECT_EQ(cache.validCount(0), 8u);
}

} // namespace
