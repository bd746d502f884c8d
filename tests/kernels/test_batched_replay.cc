/**
 * @file
 * mem::TwoLevelHierarchy::run is the one loop that streams a trace
 * into a hierarchy. It pulls references in batches and prefetches
 * the next reference's set planes, which must change how fast the
 * trace replays, never what any counter says. These tests hold
 * hier.run, sim::runTrace (plain, and guarded by a cancel token,
 * coherency traffic and occupancy sampling) and the parallel sweep
 * bit-for-bit to a per-record reference loop written here.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "mem/coherency.h"
#include "mem/hierarchy.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/trace_source.h"
#include "util/cancel.h"
#include "util/error.h"
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
meteredSpec()
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
    return spec;
}

/**
 * What runTrace computes for @p spec, one next() and one access()
 * at a time, with the coherency step and occupancy sample after
 * each access. Cancellation is left out: it never changes results.
 */
sim::RunOutput
referenceRun(trace::TraceSource &src, const sim::RunSpec &spec)
{
    mem::TwoLevelHierarchy hier(spec.hier);
    std::vector<std::unique_ptr<core::ProbeMeter>> meters;
    for (const core::SchemeSpec &scheme : spec.schemes) {
        meters.push_back(scheme.makeMeter(spec.wb_optimization));
        hier.addObserver(meters.back().get());
    }
    std::unique_ptr<core::MruDistanceMeter> dist;
    if (spec.with_distances) {
        dist = std::make_unique<core::MruDistanceMeter>(
            spec.hier.l2.assoc());
        hier.addObserver(dist.get());
    }
    mem::CoherencyTraffic remote(spec.coherency_rate);
    double occ_sum = 0.0;
    std::uint64_t n = 0, samples = 0;

    trace::MemRef r;
    src.reset();
    while (src.next(r)) {
        hier.access(r);
        remote.step(hier); // a no-op at rate 0
        ++n;
        if (spec.occupancy_sample_period != 0 &&
            n % spec.occupancy_sample_period == 0) {
            occ_sum += mem::l2ValidFraction(hier);
            ++samples;
        }
    }

    sim::RunOutput out;
    out.stats = hier.stats();
    for (const auto &meter : meters) {
        out.names.push_back(meter->name());
        out.probes.push_back(meter->stats());
    }
    if (dist) {
        out.f.assign(spec.hier.l2.assoc() + 1, 0.0);
        for (unsigned i = 1; i <= spec.hier.l2.assoc(); ++i)
            out.f[i] = dist->f(i);
    }
    if (samples != 0)
        out.mean_occupancy = occ_sum / samples;
    out.coherency_invalidations = remote.invalidations();
    out.skipped_records = src.skippedRecords();
    return out;
}

/** Wraps a source and counts the records pulled through it. */
class CountingSource final : public trace::TraceSource
{
  public:
    explicit CountingSource(trace::TraceSource &inner) : inner_(inner)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        if (!inner_.next(ref))
            return false;
        ++pulled;
        return true;
    }

    std::size_t
    nextBatch(trace::MemRef *out, std::size_t max) override
    {
        std::size_t n = inner_.nextBatch(out, max);
        pulled += n;
        return n;
    }

    void reset() override { inner_.reset(); }

    std::uint64_t pulled = 0;

  private:
    trace::TraceSource &inner_;
};

TEST(BatchedReplay, RunTraceMatchesPerRecordLoop)
{
    sim::RunSpec spec = meteredSpec();
    trace::AtumLikeGenerator ref_src(smallTrace());
    sim::RunOutput want = referenceRun(ref_src, spec);
    EXPECT_GT(want.stats.proc_refs, 0u);
    EXPECT_EQ(1u, want.stats.flushes);

    trace::AtumLikeGenerator src(smallTrace());
    EXPECT_EQ(exec::encodeRunOutput(want),
              exec::encodeRunOutput(sim::runTrace(src, spec)));
}

TEST(BatchedReplay, GuardedStepMatchesPerRecordLoop)
{
    // A cancel token, remote invalidations and occupancy samples all
    // ride on run()'s per-access step; at any checkpoint cadence the
    // output must be the reference loop's, bit for bit.
    sim::RunSpec spec = meteredSpec();
    spec.coherency_rate = 0.01;
    spec.occupancy_sample_period = 1000;
    trace::AtumLikeGenerator ref_src(smallTrace());
    sim::RunOutput want = referenceRun(ref_src, spec);
    EXPECT_GT(want.coherency_invalidations, 0u);
    EXPECT_GT(want.mean_occupancy, 0.0);

    CancelToken token; // never trips
    for (std::uint64_t every : {1ull, 7ull, 4096ull}) {
        sim::RunSpec guarded = spec;
        guarded.cancel = &token;
        guarded.checkpoint_every = every;
        trace::AtumLikeGenerator src(smallTrace());
        EXPECT_EQ(exec::encodeRunOutput(want),
                  exec::encodeRunOutput(sim::runTrace(src, guarded)))
            << "checkpoint_every=" << every;
    }
}

TEST(BatchedReplay, TrippedTokenPullsNoRecords)
{
    // Checkpoint zero: a token tripped before the run stops it
    // before the first pull, not after the first batch.
    trace::AtumLikeGenerator gen(smallTrace());
    CountingSource src(gen);
    sim::RunSpec spec = meteredSpec();
    CancelToken token;
    token.cancel();
    spec.cancel = &token;
    try {
        sim::runTrace(src, spec);
        FAIL() << "cancelled run did not throw";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Cancelled);
    }
    EXPECT_EQ(0u, src.pulled);

    // The same source, unguarded, is read to the end.
    src.pulled = 0;
    sim::RunSpec plain = meteredSpec();
    sim::RunOutput out = sim::runTrace(src, plain);
    EXPECT_EQ(out.stats.proc_refs + out.stats.flushes, src.pulled);
}

TEST(BatchedReplay, SweepPathMatchesAcrossJobs)
{
    // Four specs of varying level-two geometry through the pool,
    // serial, parallel and guarded by a job timeout: every job must
    // match the reference loop spec by spec.
    std::vector<sim::RunSpec> specs;
    for (unsigned assoc : {1u, 2u, 4u, 8u}) {
        sim::RunSpec s = meteredSpec();
        s.hier.l2 = mem::CacheGeometry(65536, 32, assoc);
        s.schemes = {core::SchemeSpec{core::SchemeKind::Mru}};
        s.with_distances = false;
        specs.push_back(s);
    }
    trace::AtumLikeConfig cfg = smallTrace();

    exec::SweepOptions serial;
    serial.jobs = 1;
    exec::SweepOptions pooled;
    pooled.jobs = 2;
    exec::SweepOptions guarded = pooled;
    guarded.job_timeout_ns = 600ull * 1000 * 1000 * 1000;
    guarded.watchdog.log = false;

    std::vector<std::string> want;
    for (const sim::RunSpec &spec : specs) {
        trace::AtumLikeGenerator gen(cfg);
        want.push_back(exec::encodeRunOutput(referenceRun(gen, spec)));
    }
    for (exec::SweepOptions *opt : {&serial, &pooled, &guarded}) {
        exec::SweepResult got = exec::runSweepChecked(
            specs, exec::atumTraceFactory(cfg), *opt);
        ASSERT_EQ(want.size(), got.jobs.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_TRUE(got.jobs[i].ok()) << got.jobs[i].error.text();
            EXPECT_EQ(want[i], exec::encodeRunOutput(got.jobs[i].output))
                << "jobs=" << opt->jobs << " spec " << i;
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
    // run() loop itself is on trial, flush markers and a partial
    // last batch included; the step must run once per record, after
    // its access.
    Pcg32 rng(0xba7c6, 4);
    std::vector<trace::MemRef> refs;
    for (int i = 0; i < 20001; ++i) {
        trace::MemRef r;
        if (i == 9000) {
            refs.push_back(trace::MemRef::flush());
            continue;
        }
        r.addr = (rng.next() & 0x3ffff);
        r.type = rng.below(3) == 0 ? trace::RefType::Write
                                   : trace::RefType::Read;
        refs.push_back(r);
    }
    trace::VectorTraceSource src(std::move(refs));

    mem::HierarchyConfig hc{mem::CacheGeometry(1024, 16, 1),
                            mem::CacheGeometry(16384, 32, 4), true};
    mem::TwoLevelHierarchy base(hc);
    trace::MemRef r;
    src.reset();
    while (src.next(r))
        base.access(r);

    mem::TwoLevelHierarchy plain(hc);
    plain.run(src);
    mem::TwoLevelHierarchy stepped(hc);
    std::uint64_t steps = 0, early = 0;
    stepped.run(src, [&] {
        // The step follows its access: it sees that record counted.
        ++steps;
        if (stepped.stats().proc_refs + stepped.stats().flushes != steps)
            ++early;
    });
    EXPECT_EQ(src.size(), steps);
    EXPECT_EQ(0u, early);

    for (const mem::TwoLevelHierarchy *h : {&plain, &stepped}) {
        const mem::HierarchyStats &a = base.stats();
        const mem::HierarchyStats &b = h->stats();
        EXPECT_EQ(a.proc_refs, b.proc_refs);
        EXPECT_EQ(a.l1_misses, b.l1_misses);
        EXPECT_EQ(a.read_in_misses, b.read_in_misses);
        EXPECT_EQ(a.write_backs, b.write_backs);
        EXPECT_EQ(a.hint_correct, b.hint_correct);
        EXPECT_EQ(a.flushes, b.flushes);
    }
}

} // namespace
} // namespace assoc
