/**
 * @file
 * Batched trace replay must be a pure throughput optimization:
 * sim::RunSpec::batch_size changes how references are pulled and
 * prefetched, never what any counter says. These tests hold every
 * batch size to bit-for-bit identical RunOutputs, on the serial
 * fast path and through the parallel sweep.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/scheme.h"
#include "exec/sweep.h"
#include "mem/hierarchy.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace assoc {
namespace {

trace::AtumLikeConfig
smallTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.seed = 0xba7c4;
    cfg.segments = 2; // a flush marker lands mid-stream
    cfg.refs_per_segment = 15000;
    cfg.processes = 2;
    return cfg;
}

sim::RunSpec
specWithBatch(unsigned batch)
{
    sim::RunSpec spec;
    spec.hier = {mem::CacheGeometry(4096, 16, 1),
                 mem::CacheGeometry(65536, 32, 4), true};
    spec.schemes = {
        core::SchemeSpec{core::SchemeKind::Traditional},
        core::SchemeSpec{core::SchemeKind::Naive},
        core::SchemeSpec{core::SchemeKind::Mru},
        core::SchemeSpec::paperPartial(4),
    };
    spec.with_distances = true;
    spec.batch_size = batch;
    return spec;
}

void
expectSameOutput(const sim::RunOutput &want,
                 const sim::RunOutput &got, unsigned batch)
{
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const mem::HierarchyStats &a = want.stats;
    const mem::HierarchyStats &b = got.stats;
    EXPECT_EQ(a.proc_refs, b.proc_refs);
    EXPECT_EQ(a.l1_hits, b.l1_hits);
    EXPECT_EQ(a.l1_misses, b.l1_misses);
    EXPECT_EQ(a.read_ins, b.read_ins);
    EXPECT_EQ(a.read_in_hits, b.read_in_hits);
    EXPECT_EQ(a.read_in_misses, b.read_in_misses);
    EXPECT_EQ(a.write_backs, b.write_backs);
    EXPECT_EQ(a.write_back_hits, b.write_back_hits);
    EXPECT_EQ(a.write_back_misses, b.write_back_misses);
    EXPECT_EQ(a.hint_correct, b.hint_correct);
    EXPECT_EQ(a.hint_wrong, b.hint_wrong);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.inclusion_invalidations, b.inclusion_invalidations);

    ASSERT_EQ(want.names, got.names);
    ASSERT_EQ(want.probes.size(), got.probes.size());
    for (std::size_t i = 0; i < want.probes.size(); ++i) {
        const core::ProbeStats &p = want.probes[i];
        const core::ProbeStats &q = got.probes[i];
        SCOPED_TRACE(want.names[i]);
        EXPECT_EQ(p.read_in_hits.count(), q.read_in_hits.count());
        EXPECT_EQ(p.read_in_hits.sum(), q.read_in_hits.sum());
        EXPECT_EQ(p.read_in_misses.count(),
                  q.read_in_misses.count());
        EXPECT_EQ(p.read_in_misses.sum(), q.read_in_misses.sum());
        EXPECT_EQ(p.write_backs.count(), q.write_backs.count());
        EXPECT_EQ(p.write_backs.sum(), q.write_backs.sum());
        EXPECT_EQ(p.alias_hits, q.alias_hits);
        EXPECT_EQ(p.alias_wrong_way, q.alias_wrong_way);
    }
    EXPECT_EQ(want.f, got.f);
}

TEST(BatchedReplay, EveryBatchSizeMatchesUnbatched)
{
    trace::AtumLikeGenerator unbatched(smallTrace());
    sim::RunOutput want = sim::runTrace(unbatched, specWithBatch(1));
    EXPECT_GT(want.stats.proc_refs, 0u);
    EXPECT_EQ(1u, want.stats.flushes);

    for (unsigned batch : {0u, 4u, 16u, 64u}) {
        trace::AtumLikeGenerator src(smallTrace());
        sim::RunOutput got = sim::runTrace(src, specWithBatch(batch));
        expectSameOutput(want, got, batch);
    }
}

TEST(BatchedReplay, SweepPathMatchesAcrossBatchSizesAndJobs)
{
    // Four specs of varying level-two geometry, run once with
    // batching off and once with the default batch, serial and
    // through the pool: all four ways must agree spec by spec.
    auto makeSpecs = [](unsigned batch) {
        std::vector<sim::RunSpec> specs;
        for (unsigned assoc : {1u, 2u, 4u, 8u}) {
            sim::RunSpec s = specWithBatch(batch);
            s.hier.l2 = mem::CacheGeometry(65536, 32, assoc);
            s.schemes = {core::SchemeSpec{core::SchemeKind::Mru}};
            s.with_distances = false;
            specs.push_back(s);
        }
        return specs;
    };
    trace::AtumLikeConfig cfg = smallTrace();

    exec::SweepOptions serial;
    serial.jobs = 1;
    exec::SweepOptions pooled;
    pooled.jobs = 2;

    std::vector<sim::RunOutput> want;
    for (const sim::RunSpec &spec : makeSpecs(1)) {
        trace::AtumLikeGenerator gen(cfg);
        want.push_back(sim::runTrace(gen, spec));
    }
    for (unsigned batch : {1u, 64u}) {
        for (exec::SweepOptions *opt : {&serial, &pooled}) {
            exec::SweepResult got = exec::runSweepChecked(
                makeSpecs(batch), exec::atumTraceFactory(cfg), *opt);
            ASSERT_EQ(want.size(), got.jobs.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_TRUE(got.jobs[i].ok());
                expectSameOutput(want[i], got.jobs[i].output, batch);
            }
        }
    }
}

TEST(BatchedReplay, VectorSourceBatchesMatchSerialNext)
{
    Pcg32 rng(0xba7c5, 3);
    std::vector<trace::MemRef> refs;
    for (int i = 0; i < 1000; ++i) {
        trace::MemRef r;
        r.addr = rng.next();
        r.type = rng.below(4) == 0 ? trace::RefType::Write
                                   : trace::RefType::Read;
        refs.push_back(r);
    }

    trace::VectorTraceSource serial(refs);
    for (std::size_t batch : {1u, 4u, 16u, 64u, 7u}) {
        trace::VectorTraceSource batched(refs);
        serial.reset();
        std::vector<trace::MemRef> buf(batch);
        std::size_t total = 0;
        for (;;) {
            std::size_t n = batched.nextBatch(buf.data(), batch);
            if (n == 0)
                break;
            EXPECT_LE(n, batch);
            for (std::size_t i = 0; i < n; ++i) {
                trace::MemRef r;
                ASSERT_TRUE(serial.next(r));
                EXPECT_EQ(r.addr, buf[i].addr);
                EXPECT_EQ(r.type, buf[i].type);
            }
            total += n;
        }
        trace::MemRef r;
        EXPECT_FALSE(serial.next(r));
        EXPECT_EQ(refs.size(), total);
    }
}

TEST(BatchedReplay, HierarchyRunBatchedEqualsPerReference)
{
    // Drive the hierarchy directly (no runner) so the prefetching
    // run() loop itself is on trial, flush markers included.
    Pcg32 rng(0xba7c6, 4);
    trace::VectorTraceSource src;
    for (int i = 0; i < 20000; ++i) {
        trace::MemRef r;
        if (i == 9000) {
            src.push(trace::MemRef::flush());
            continue;
        }
        r.addr = (rng.next() & 0x3ffff);
        r.type = rng.below(3) == 0 ? trace::RefType::Write
                                   : trace::RefType::Read;
        src.push(r);
    }

    mem::HierarchyConfig hc{mem::CacheGeometry(1024, 16, 1),
                            mem::CacheGeometry(16384, 32, 4), true};
    mem::TwoLevelHierarchy base(hc);
    base.run(src, 1);

    for (unsigned batch : {4u, 16u, 64u}) {
        mem::TwoLevelHierarchy h(hc);
        h.run(src, batch);
        const mem::HierarchyStats &a = base.stats();
        const mem::HierarchyStats &b = h.stats();
        EXPECT_EQ(a.proc_refs, b.proc_refs) << "batch=" << batch;
        EXPECT_EQ(a.l1_misses, b.l1_misses) << "batch=" << batch;
        EXPECT_EQ(a.read_in_misses, b.read_in_misses)
            << "batch=" << batch;
        EXPECT_EQ(a.write_backs, b.write_backs) << "batch=" << batch;
        EXPECT_EQ(a.flushes, b.flushes) << "batch=" << batch;
    }
}

} // namespace
} // namespace assoc
