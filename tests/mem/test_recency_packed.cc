/**
 * @file
 * Randomized equivalence tests for the packed recency orders: the
 * 4-bit-slot uint64 representation (and the wide byte fallback)
 * must evolve exactly like a straightforward reference vector under
 * every operation the cache performs — promote on touch/fill,
 * demote on invalidate, rotation reset on flush.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.h"
#include "util/rng.h"

using namespace assoc;
using namespace assoc::mem;

namespace {

/** Reference model: one vector per order, explicit list surgery. */
struct RefOrders
{
    std::vector<std::uint8_t> mru;  ///< front = most recent
    std::vector<std::uint8_t> fifo; ///< front = youngest fill

    explicit RefOrders(unsigned a, std::uint32_t set)
    {
        // Matches the cache's cold-start rotation: way (i + set) % a
        // at position i of both orders.
        for (unsigned i = 0; i < a; ++i) {
            auto w = static_cast<std::uint8_t>((i + set) % a);
            mru.push_back(w);
            fifo.push_back(w);
        }
    }

    static void
    promote(std::vector<std::uint8_t> &order, std::uint8_t way)
    {
        auto it = std::find(order.begin(), order.end(), way);
        ASSERT_NE(it, order.end());
        order.erase(it);
        order.insert(order.begin(), way);
    }

    static void
    demote(std::vector<std::uint8_t> &order, std::uint8_t way)
    {
        auto it = std::find(order.begin(), order.end(), way);
        ASSERT_NE(it, order.end());
        order.erase(it);
        order.push_back(way);
    }
};

/**
 * Drive one single-set cache and the reference model through the
 * same random operation sequence and compare decoded orders after
 * every step. A one-set geometry (sets == 1 via size == block * a)
 * keeps every operation in set 0 without loss of generality: order
 * state is strictly per-set.
 */
void
runEquivalence(unsigned a, std::uint64_t seed)
{
    const std::uint32_t block = 16;
    WriteBackCache cache(CacheGeometry(block * a, block, a));
    RefOrders ref(a, 0);
    Pcg32 rng(seed);

    // block-aligned addresses all mapping to set 0
    auto blockOf = [&](unsigned i) {
        return static_cast<BlockAddr>(i);
    };
    std::vector<int> way_of(2 * a, -1); // block -> way or -1

    for (int step = 0; step < 4000; ++step) {
        const unsigned b = rng.below(2 * a);
        const double roll = rng.uniform();
        if (roll < 0.45) {
            // touch (hit path) if present, else fill
            if (way_of[b] >= 0) {
                cache.touch(0, way_of[b]);
                RefOrders::promote(ref.mru,
                                   static_cast<std::uint8_t>(
                                       way_of[b]));
            } else {
                int victim = cache.victimWay(0);
                FillResult fr = cache.fill(blockOf(b), false);
                ASSERT_EQ(fr.way, victim);
                for (auto &w : way_of)
                    if (w == fr.way)
                        w = -1; // displaced (or same frame reused)
                way_of[b] = fr.way;
                auto w8 = static_cast<std::uint8_t>(fr.way);
                RefOrders::promote(ref.mru, w8);
                RefOrders::promote(ref.fifo, w8);
            }
        } else if (roll < 0.75) {
            // invalidate (possibly absent): demotes in BOTH orders
            cache.invalidate(blockOf(b));
            if (way_of[b] >= 0) {
                auto w8 = static_cast<std::uint8_t>(way_of[b]);
                RefOrders::demote(ref.mru, w8);
                RefOrders::demote(ref.fifo, w8);
                way_of[b] = -1;
            }
        } else if (roll < 0.80) {
            cache.flush();
            ref = RefOrders(a, 0);
            std::fill(way_of.begin(), way_of.end(), -1);
        } else {
            // pure lookup must not disturb either order
            (void)cache.findWay(blockOf(b));
        }

        ASSERT_EQ(cache.mruOrder(0), ref.mru)
            << "assoc " << a << " step " << step;
        ASSERT_EQ(cache.fifoOrder(0), ref.fifo)
            << "assoc " << a << " step " << step;
    }
}

class RecencyEquivalence
    : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RecencyEquivalence, MatchesReferenceVectors)
{
    runEquivalence(GetParam(), 0xc0ffee + GetParam());
}

// 1 exercises the direct-mapped short cuts in touch() and fill();
// 2..16 the packed 4-bit representation (including the full 16-slot
// word); 32 the wide byte fallback. (CacheGeometry only admits
// power-of-two associativities.)
INSTANTIATE_TEST_SUITE_P(Assoc, RecencyEquivalence,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

/** Reference model of one direct-mapped frame. */
struct RefFrame
{
    bool valid = false;
    bool dirty = false;
    BlockAddr block = 0;
};

class DirectMapped : public ::testing::TestWithParam<ReplPolicy>
{};

/**
 * A one-way cache skips victim selection and recency bookkeeping
 * (its orders are the constant {0}); under every policy it must
 * still behave like a plain direct-mapped frame array through a
 * seeded fill/touch/setDirty/invalidate/flush stream.
 */
TEST_P(DirectMapped, MatchesFrameModel)
{
    const CacheGeometry geom(256, 16, 1); // 16 sets
    WriteBackCache cache(geom, GetParam(), 7);
    std::vector<RefFrame> ref(geom.sets());
    const std::vector<std::uint8_t> zero = {0};
    Pcg32 rng(0xd1ec7 + static_cast<unsigned>(GetParam()));

    for (int step = 0; step < 20000; ++step) {
        // 4 blocks per set compete for each frame.
        const BlockAddr b = rng.below(4 * geom.sets());
        const std::uint32_t set = geom.setOf(b);
        RefFrame &f = ref[set];
        const bool present = f.valid && f.block == b;
        ASSERT_EQ(cache.findWay(b), present ? 0 : -1)
            << "step " << step;
        const double roll = rng.uniform();
        if (roll < 0.5) {
            if (present) {
                cache.touch(set, 0);
            } else {
                bool dirty = rng.chance(0.4);
                FillResult fr = cache.fill(b, dirty);
                EXPECT_EQ(fr.way, 0) << "step " << step;
                EXPECT_EQ(fr.evicted, f.valid) << "step " << step;
                EXPECT_EQ(fr.victim_block, f.valid ? f.block : 0)
                    << "step " << step;
                EXPECT_EQ(fr.victim_dirty, f.valid && f.dirty)
                    << "step " << step;
                f = RefFrame{true, dirty, b};
            }
        } else if (roll < 0.75) {
            if (present) {
                cache.setDirty(set, 0);
                f.dirty = true;
            }
        } else if (roll < 0.99) {
            EXPECT_EQ(cache.invalidate(b), present && f.dirty)
                << "step " << step;
            if (present)
                f.valid = f.dirty = false;
        } else {
            cache.flush();
            for (RefFrame &r : ref)
                r.valid = r.dirty = false;
        }

        Line l = cache.line(set, 0);
        ASSERT_EQ(l.valid, f.valid) << "step " << step;
        ASSERT_EQ(l.dirty, f.dirty) << "step " << step;
        if (f.valid) {
            ASSERT_EQ(l.block, f.block) << "step " << step;
        }
        ASSERT_EQ(cache.validCount(set), f.valid ? 1u : 0u);
        ASSERT_EQ(cache.victimWay(set), 0);
        ASSERT_EQ(cache.mruOrder(set), zero) << "step " << step;
        ASSERT_EQ(cache.fifoOrder(set), zero) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policy, DirectMapped,
    ::testing::Values(ReplPolicy::Lru, ReplPolicy::Fifo,
                      ReplPolicy::Random, ReplPolicy::TreePlru),
    [](const ::testing::TestParamInfo<ReplPolicy> &info) {
        return std::string(replPolicyName(info.param));
    });

TEST(RecencyPacked, ColdStartRotationVariesBySet)
{
    // The initial orders are a per-set rotation (not identical
    // lists), so cold misses spread across ways — decoded state
    // must reproduce exactly that rotation.
    WriteBackCache cache(CacheGeometry(4096, 16, 4));
    const unsigned a = 4;
    for (std::uint32_t set : {0u, 1u, 5u, cache.geom().sets() - 1}) {
        std::vector<std::uint8_t> want;
        for (unsigned i = 0; i < a; ++i)
            want.push_back(static_cast<std::uint8_t>((i + set) % a));
        EXPECT_EQ(cache.mruOrder(set), want) << "set " << set;
        EXPECT_EQ(cache.fifoOrder(set), want) << "set " << set;
    }
}

TEST(RecencyPacked, SnapshotMatchesPerLineReads)
{
    WriteBackCache cache(CacheGeometry(2048, 16, 8));
    Pcg32 rng(11);
    for (int i = 0; i < 500; ++i) {
        BlockAddr b = rng.below(256);
        int way = cache.findWay(b);
        if (way < 0)
            cache.fill(b, rng.chance(0.3));
        else
            cache.touch(cache.geom().setOf(b), way);
    }
    const unsigned a = cache.geom().assoc();
    std::vector<std::uint32_t> tags(a);
    std::vector<std::uint8_t> valid(a), order(a);
    for (std::uint32_t set = 0; set < cache.geom().sets(); ++set) {
        cache.snapshotSet(set, tags.data(), valid.data(),
                          order.data());
        std::vector<std::uint8_t> mru = cache.mruOrder(set);
        for (unsigned w = 0; w < a; ++w) {
            Line l = cache.line(set, static_cast<int>(w));
            EXPECT_EQ(valid[w], l.valid ? 1 : 0);
            EXPECT_EQ(tags[w], cache.geom().fullTagOf(l.block));
            EXPECT_EQ(order[w], mru[w]);
        }
    }
}

} // namespace
