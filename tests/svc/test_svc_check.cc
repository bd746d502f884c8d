#include <gtest/gtest.h>

#include "check/svc_check.h"

namespace {

using namespace assoc;
using check::SvcFuzzCase;
using check::ViolationLog;
using svc::HistoryEvent;
using svc::OpKind;

/** Run a small contended service and return its history + engine. */
struct HistoryFixture
{
    std::unique_ptr<svc::CacheService> service;
    std::vector<HistoryEvent> events;

    explicit HistoryFixture(std::uint64_t seed)
    {
        SvcFuzzCase c = check::sampleSvcCase(seed, 0, 2);
        Expected<std::unique_ptr<svc::CacheService>> e =
            svc::CacheService::create(c.geom, c.cfg);
        if (!e.ok())
            throw std::runtime_error(e.error().message());
        service = e.take();
        Expected<svc::Session *> s = service->openSession();
        if (!s.ok())
            throw std::runtime_error(s.error().message());
        svc::Session *session = s.take();
        for (const check::SvcOpSpec &op : svcOpStream(c, 0))
            session->apply(op.kind, op.block, op.is_write);
        events = service->collectHistory();
        geom = c.geom;
        policy = c.cfg.engine.policy;
        stripes = service->engine().stripes();
    }

    mem::CacheGeometry geom{1024, 16, 2};
    mem::ReplPolicy policy = mem::ReplPolicy::Lru;
    unsigned stripes = 0;
};

TEST(SvcHistoryChecker, CleanHistoryPasses)
{
    HistoryFixture fx(11);
    ViolationLog log;
    check::checkSvcHistory(fx.geom, fx.policy, fx.stripes,
                           fx.events, &fx.service->engine().cache(),
                           log);
    EXPECT_TRUE(log.ok()) << (log.messages().empty()
                                  ? ""
                                  : log.messages().front());
}

TEST(SvcHistoryChecker, DetectsCorruptedOutcome)
{
    HistoryFixture fx(12);
    ASSERT_FALSE(fx.events.empty());
    // Flip one recorded hit outcome: the replay must notice.
    for (HistoryEvent &e : fx.events) {
        if (e.op.kind == OpKind::Probe) {
            e.op.hit = !e.op.hit;
            break;
        }
    }
    ViolationLog log;
    check::checkSvcHistory(fx.geom, fx.policy, fx.stripes,
                           fx.events, nullptr, log);
    EXPECT_FALSE(log.ok());
}

TEST(SvcHistoryChecker, DetectsDuplicateMutationVersion)
{
    HistoryFixture fx(13);
    // Find two mutations on the same stripe and give the second
    // the first one's version — the signature of a writer that
    // slipped past the stripe lock.
    HistoryEvent *first = nullptr;
    bool corrupted = false;
    for (HistoryEvent &e : fx.events) {
        if (!e.op.mutated)
            continue;
        unsigned stripe = e.op.set & (fx.stripes - 1);
        if (!first) {
            first = &e;
        } else if ((first->op.set & (fx.stripes - 1)) == stripe) {
            e.op.version = first->op.version;
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    ViolationLog log;
    check::checkSvcHistory(fx.geom, fx.policy, fx.stripes,
                           fx.events, nullptr, log);
    EXPECT_FALSE(log.ok());
}

TEST(SvcHistoryChecker, DetectsVersionGap)
{
    HistoryFixture fx(14);
    // Push one mutation's version far ahead: a mutation escaped
    // the seqlock protocol.
    bool corrupted = false;
    for (HistoryEvent &e : fx.events) {
        if (e.op.mutated) {
            e.op.version += 1000;
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    ViolationLog log;
    check::checkSvcHistory(fx.geom, fx.policy, fx.stripes,
                           fx.events, nullptr, log);
    EXPECT_FALSE(log.ok());
}

TEST(SvcStatsMerge, DetectsDivergence)
{
    svc::TenantStats a, b;
    svc::OpResult r;
    r.kind = OpKind::Access;
    r.hit = true;
    r.probes = 2;
    r.mutated = true;
    a.recordOp(r);
    b.recordOp(r);
    b.recordOp(r); // one extra op

    ViolationLog log;
    check::checkStatsMerge(a, b, log);
    EXPECT_FALSE(log.ok());
}

TEST(SvcFuzz, CaseSamplingIsDeterministic)
{
    SvcFuzzCase a = check::sampleSvcCase(42, 7);
    SvcFuzzCase b = check::sampleSvcCase(42, 7);
    EXPECT_EQ(a.case_seed, b.case_seed);
    EXPECT_TRUE(a.geom == b.geom);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.block_space, b.block_space);

    // The override pins the thread count without reshaping the case.
    SvcFuzzCase forced = check::sampleSvcCase(42, 7, 8);
    EXPECT_EQ(forced.threads, 8u);
    EXPECT_TRUE(forced.geom == a.geom);
    EXPECT_EQ(forced.case_seed, a.case_seed);
}

TEST(SvcFuzz, StreamsAreDeterministicAndPerThread)
{
    SvcFuzzCase c = check::sampleSvcCase(42, 3);
    std::vector<check::SvcOpSpec> s0 = svcOpStream(c, 0);
    std::vector<check::SvcOpSpec> s0b = svcOpStream(c, 0);
    std::vector<check::SvcOpSpec> s1 = svcOpStream(c, 1);
    ASSERT_EQ(s0.size(), s0b.size());
    for (std::size_t i = 0; i < s0.size(); ++i) {
        EXPECT_EQ(s0[i].block, s0b[i].block);
        EXPECT_EQ(static_cast<int>(s0[i].kind),
                  static_cast<int>(s0b[i].kind));
    }
    bool differs = s0.size() != s1.size();
    for (std::size_t i = 0; !differs && i < s0.size(); ++i)
        differs = s0[i].block != s1[i].block ||
                  s0[i].kind != s1[i].kind;
    EXPECT_TRUE(differs);
}

TEST(SvcFuzz, ShortCampaignPasses)
{
    check::CampaignOptions opt;
    opt.seed = 21;
    opt.iterations = 10;
    check::SvcFuzzSummary sum = check::runSvcFuzz(opt);
    EXPECT_TRUE(sum.ok());
    EXPECT_EQ(sum.cases_run, 10u);
    EXPECT_GT(sum.ops, 0u);

    // Same campaign, same digest: repro lines stay meaningful.
    check::SvcFuzzSummary again = check::runSvcFuzz(opt);
    EXPECT_EQ(sum.digest, again.digest);
}

TEST(SvcFuzz, ReproCommandEchoesThreads)
{
    EXPECT_EQ(check::reproCommand(check::svcReproFlags(4), 3, 17),
              "fuzz_diff --threads=4 --seed=3 --config=17");
}

} // namespace
