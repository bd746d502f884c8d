/**
 * @file
 * The shared trace behind exec::atumTraceFactory: every job replays
 * one lazily built, immutable buffer that equals a fresh
 * AtumLikeGenerator's stream; the buffer is built at most once per
 * factory, never on a failed (cancelled, timed-out, over-budget)
 * build, and never by a sweep restored from its journal; each job is
 * charged the whole buffer, so budget outcomes do not depend on the
 * schedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "exec/journal.h"
#include "exec/sweep.h"

namespace assoc {
namespace exec {
namespace {

trace::AtumLikeConfig
smallTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 2;
    cfg.refs_per_segment = 20000;
    return cfg;
}

std::uint64_t
traceBytes(const trace::AtumLikeConfig &cfg)
{
    return cfg.totalRefs() * sizeof(trace::MemRef);
}

std::vector<sim::RunSpec>
sweepSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u}) {
        sim::RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(4096, 16, 1),
            mem::CacheGeometry(32768, 32, a), true};
        core::SchemeSpec naive, mru;
        naive.kind = core::SchemeKind::Naive;
        mru.kind = core::SchemeKind::Mru;
        spec.schemes = {naive, mru, core::SchemeSpec::paperPartial(a)};
        specs.push_back(spec);
    }
    return specs;
}

/** What a fresh generator emits for @p cfg. */
std::vector<trace::MemRef>
generated(const trace::AtumLikeConfig &cfg)
{
    trace::AtumLikeGenerator gen(cfg);
    std::vector<trace::MemRef> refs;
    trace::MemRef r;
    while (gen.next(r))
        refs.push_back(r);
    return refs;
}

/** Drain @p src, alternating single pulls and batches. */
std::vector<trace::MemRef>
drain(trace::TraceSource &src)
{
    std::vector<trace::MemRef> refs;
    trace::MemRef buf[61];
    for (bool single = true;; single = !single) {
        if (single) {
            if (!src.next(buf[0]))
                break;
            refs.push_back(buf[0]);
            continue;
        }
        std::size_t n = src.nextBatch(buf, 61);
        refs.insert(refs.end(), buf, buf + n);
        if (n == 0)
            break;
    }
    return refs;
}

/** The goldens: a serial sim::runTrace() loop, one generator each. */
std::vector<std::string>
serialOutputs(const std::vector<sim::RunSpec> &specs,
              const trace::AtumLikeConfig &tcfg)
{
    std::vector<std::string> outs;
    for (const sim::RunSpec &spec : specs) {
        trace::AtumLikeGenerator gen(tcfg);
        outs.push_back(encodeRunOutput(sim::runTrace(gen, spec)));
    }
    return outs;
}

void
expectGolden(const SweepResult &run,
             const std::vector<std::string> &want)
{
    ASSERT_EQ(run.jobs.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(run.jobs[i].ok()) << run.jobs[i].error.text();
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i])
            << "slot " << i;
    }
}

const SharedTraceSource &
shared(const std::unique_ptr<trace::TraceSource> &src)
{
    return dynamic_cast<const SharedTraceSource &>(*src);
}

TEST(SharedTrace, ConcurrentCallersEachReplayTheGeneratorStream)
{
    trace::AtumLikeConfig cfg = smallTrace();
    const std::vector<trace::MemRef> want = generated(cfg);
    TraceFactory factory = atumTraceFactory(cfg);

    constexpr std::size_t kThreads = 8;
    std::vector<std::vector<trace::MemRef>> got(kThreads);
    std::vector<trace::SharedRefs> buffers(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            std::unique_ptr<trace::TraceSource> src = factory(t);
            got[t] = drain(*src);
            buffers[t] = shared(src).buffer();
        });
    }
    go = true;
    for (std::thread &th : threads)
        th.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(got[t] == want) << "thread " << t;
        EXPECT_EQ(buffers[t], buffers[0]) << "thread " << t;
    }
    EXPECT_EQ(buffers[0]->size(), cfg.totalRefs());
    EXPECT_EQ(buffers[0]->capacity(), cfg.totalRefs())
        << "the buffer is sized exactly, never regrown";
}

TEST(SharedTrace, EverySourceOfOneFactorySharesOneBuild)
{
    trace::AtumLikeConfig cfg = smallTrace();
    TraceFactory factory = atumTraceFactory(cfg);
    TraceFactory copy = factory;

    std::unique_ptr<trace::TraceSource> a = factory(0);
    trace::MemRef r;
    ASSERT_TRUE(a->next(r));

    // Once built, the buffer is replayed, never rebuilt: a source
    // whose token is already tripped (a rebuild would throw on it)
    // still streams the whole trace.
    CancelToken tripped;
    tripped.cancel();
    std::unique_ptr<trace::TraceSource> b = copy(1);
    b->setCancelToken(&tripped);
    EXPECT_EQ(drain(*b).size(), cfg.totalRefs());
    EXPECT_FALSE(b->failed());
    EXPECT_EQ(shared(a).buffer(), shared(b).buffer());

    // A second factory is a second build.
    std::unique_ptr<trace::TraceSource> c = atumTraceFactory(cfg)(0);
    ASSERT_TRUE(c->next(r));
    EXPECT_NE(shared(a).buffer(), shared(c).buffer());
}

TEST(SharedTrace, CancelledBuildIsNotCached)
{
    trace::AtumLikeConfig cfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    TraceFactory factory = atumTraceFactory(cfg);

    // Neither atumTraceFactory() nor the per-job call built the
    // buffer, so this first pull builds, and stops on its token.
    CancelToken cancelled;
    cancelled.cancel();
    std::unique_ptr<trace::TraceSource> src = factory(0);
    src->setCancelToken(&cancelled);
    trace::MemRef r;
    EXPECT_FALSE(src->next(r));
    EXPECT_EQ(src->error().code(), ErrorCode::Cancelled);
    EXPECT_FALSE(src->next(r)) << "the failure is sticky";
    EXPECT_TRUE(shared(src).buffer()->empty());

    SweepOptions opts;
    opts.jobs = 3;
    expectGolden(runSweepChecked(specs, factory, opts),
                 serialOutputs(specs, cfg));
}

TEST(SharedTrace, TimedOutBuildIsNotCached)
{
    // Big enough (tens of ms) that the build outlives its 1 ms
    // deadline, whichever of its checkpoints notices first.
    trace::AtumLikeConfig cfg;
    cfg.segments = 4;
    cfg.refs_per_segment = 100000;
    TraceFactory factory = atumTraceFactory(cfg);

    CancelToken deadline;
    deadline.setDeadline(Deadline::after(1000000));
    std::unique_ptr<trace::TraceSource> src = factory(0);
    src->setCancelToken(&deadline);
    trace::MemRef r;
    EXPECT_FALSE(src->next(r));
    EXPECT_EQ(src->error().code(), ErrorCode::Timeout);
    EXPECT_TRUE(shared(src).buffer()->empty());

    std::unique_ptr<trace::TraceSource> retry = factory(1);
    EXPECT_TRUE(drain(*retry) == generated(cfg));
}

TEST(SharedTrace, OverBudgetSourceBuildsNothing)
{
    trace::AtumLikeConfig cfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    TraceFactory factory = atumTraceFactory(cfg);

    MemBudget tight(traceBytes(cfg) - 1);
    std::unique_ptr<trace::TraceSource> src = factory(0);
    src->setMemBudget(&tight);
    trace::MemRef r;
    EXPECT_FALSE(src->next(r));
    EXPECT_EQ(src->error().code(), ErrorCode::Budget);
    EXPECT_EQ(tight.used(), 0u);
    EXPECT_TRUE(shared(src).buffer()->empty());

    // The charge is exactly the buffer and lasts as long as the
    // source does.
    MemBudget exact(traceBytes(cfg));
    {
        std::unique_ptr<trace::TraceSource> fits = factory(1);
        fits->setMemBudget(&exact);
        ASSERT_TRUE(fits->next(r));
        EXPECT_EQ(exact.used(), traceBytes(cfg));
    }
    EXPECT_EQ(exact.used(), 0u);

    // A source that only replays the built buffer is charged alike.
    std::unique_ptr<trace::TraceSource> late = factory(2);
    late->setMemBudget(&tight);
    EXPECT_FALSE(late->next(r));
    EXPECT_EQ(late->error().code(), ErrorCode::Budget);

    SweepOptions opts;
    opts.jobs = 2;
    expectGolden(runSweepChecked(specs, factory, opts),
                 serialOutputs(specs, cfg));
}

TEST(SharedTrace, JobBudgetBelowTheTraceFailsEveryJobFirstAttempt)
{
    trace::AtumLikeConfig cfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::uint64_t biggest_hierarchy = 0;
    for (const sim::RunSpec &spec : specs)
        biggest_hierarchy = std::max<std::uint64_t>(
            biggest_hierarchy,
            mem::TwoLevelHierarchy(spec.hier).footprintBytes());
    ASSERT_LT(biggest_hierarchy, traceBytes(cfg) - 1)
        << "the hierarchy alone must fit, so the trace is what fails";

    for (unsigned jobs : {1u, 3u}) {
        TraceFactory factory = atumTraceFactory(cfg);
        SweepOptions opts;
        opts.jobs = jobs;
        opts.max_retries = 2;
        opts.retry_all_errors = true;
        opts.job_mem_budget = traceBytes(cfg) - 1;
        SweepResult run = runSweepChecked(specs, factory, opts);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const JobResult &job = run.jobs[i];
            EXPECT_EQ(job.status, JobStatus::OverBudget)
                << "jobs=" << jobs << " slot " << i;
            EXPECT_EQ(job.attempts, 1u);
            EXPECT_NE(job.error.text().find("shared trace buffer"),
                      std::string::npos)
                << job.error.text();
        }

        // Room for the largest hierarchy plus the whole trace: every
        // job fits, however many ran at once.
        opts.job_mem_budget = biggest_hierarchy + traceBytes(cfg);
        expectGolden(runSweepChecked(specs, factory, opts),
                     serialOutputs(specs, cfg));
    }
}

TEST(SharedTrace, InvalidConfigFailsEveryJobWithTheUsageError)
{
    trace::AtumLikeConfig cfg = smallTrace();
    cfg.segments = 0;
    std::string want;
    try {
        trace::AtumLikeGenerator gen(cfg);
    } catch (const ErrorException &e) {
        want = e.error().text();
    }
    ASSERT_FALSE(want.empty());

    std::vector<sim::RunSpec> specs = sweepSpecs();
    SweepOptions opts;
    opts.jobs = 2;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(cfg), opts);
    for (const JobResult &job : run.jobs) {
        EXPECT_EQ(job.status, JobStatus::Failed);
        EXPECT_EQ(job.error.code(), ErrorCode::Usage);
        EXPECT_NE(job.error.text().find(want), std::string::npos)
            << job.error.text();
        EXPECT_EQ(job.attempts, 1u);
    }
}

TEST(SharedTrace, FullyResumedSweepNeverBuilds)
{
    const std::string path =
        ::testing::TempDir() + "shared_trace_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".journal";
    std::remove(path.c_str());

    trace::AtumLikeConfig cfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = serialOutputs(specs, cfg);
    const std::uint64_t hash = hashSpecs(specs, cfg.seed);

    SweepOptions first;
    first.jobs = 2;
    first.journal_path = path;
    first.spec_hash = hash;
    expectGolden(runSweepChecked(specs, atumTraceFactory(cfg), first),
                 want);

    TraceFactory factory = atumTraceFactory(cfg);
    std::atomic<unsigned> calls{0};
    TraceFactory counted = [&](std::size_t i) {
        ++calls;
        return factory(i);
    };
    SweepOptions resume;
    resume.jobs = 2;
    resume.resume_path = path;
    resume.spec_hash = hash;
    SweepResult run = runSweepChecked(specs, counted, resume);
    EXPECT_EQ(run.resumed, specs.size());
    EXPECT_EQ(calls.load(), 0u);
    expectGolden(run, want);

    // Still unbuilt: the first pull builds, and stops on its token.
    CancelToken cancelled;
    cancelled.cancel();
    std::unique_ptr<trace::TraceSource> src = factory(0);
    src->setCancelToken(&cancelled);
    trace::MemRef r;
    EXPECT_FALSE(src->next(r));
    EXPECT_EQ(src->error().code(), ErrorCode::Cancelled);
    std::remove(path.c_str());
}

} // namespace
} // namespace exec
} // namespace assoc
