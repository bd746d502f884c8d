/**
 * Allocation-regression tests: the per-reference and per-operation
 * hot paths must not touch the heap.
 *
 * This binary replaces the global operator new with a counting one,
 * so it stands alone (one ctest target of its own). A passing
 * invariant check, a trace draw or a cache operation that starts to
 * allocate again shows up here as a count that grows with the
 * length of the run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "sim/runner.h"
#include "svc/concurrent_cache.h"
#include "svc/service.h"
#include "trace/atum_like.h"
#include "trace/trace_source.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

std::uint64_t
allocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace

// Every form is replaced, so no allocation escapes the count and no
// pointer is freed by a different allocator than the one that made
// it (sanitizer runtimes supply their own forms).
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace assoc;

/** The first @p n references of a one-segment AtumLike trace. */
std::vector<trace::MemRef>
atumRefs(std::uint64_t n)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 1;
    cfg.refs_per_segment = n;
    trace::AtumLikeGenerator gen(cfg);
    std::vector<trace::MemRef> refs;
    refs.reserve(n);
    trace::MemRef r;
    while (gen.next(r))
        refs.push_back(r);
    return refs;
}

/** A 4K-16 direct-mapped L1 over a 16-way 256K-32 L2 with all six
 *  lookup schemes attached. */
sim::RunSpec
allSchemesSpec()
{
    sim::RunSpec spec;
    spec.hier = mem::HierarchyConfig{mem::CacheGeometry(4096, 16, 1),
                                     mem::CacheGeometry(262144, 32, 16),
                                     true};
    for (core::SchemeKind k :
         {core::SchemeKind::Traditional, core::SchemeKind::Naive,
          core::SchemeKind::Mru, core::SchemeKind::Partial,
          core::SchemeKind::WayMemo, core::SchemeKind::WayPredict}) {
        core::SchemeSpec s;
        if (k == core::SchemeKind::Partial)
            s = core::SchemeSpec::paperPartial(16);
        s.kind = k;
        spec.schemes.push_back(s);
    }
    return spec;
}

/** Allocations made by one sim::runTrace call over @p refs. */
std::uint64_t
runTraceAllocs(std::vector<trace::MemRef> refs, const sim::RunSpec &spec)
{
    trace::VectorTraceSource src(std::move(refs));
    std::uint64_t before = allocs();
    sim::RunOutput out = sim::runTrace(src, spec);
    std::uint64_t made = allocs() - before;
    EXPECT_EQ(out.stats.proc_refs, src.size());
    return made;
}

TEST(AllocFree, RunTraceAllocationsDoNotGrowWithTraceLength)
{
    const std::uint64_t n = 20000;
    sim::RunSpec spec = allSchemesSpec();
    // The first run also pays one-time lazy initialization (kernel
    // dispatch, function-local statics); it is not compared.
    runTraceAllocs(atumRefs(n), spec);
    std::uint64_t short_run = runTraceAllocs(atumRefs(n), spec);
    std::uint64_t long_run = runTraceAllocs(atumRefs(10 * n), spec);
    // Set-up (hierarchy planes, meters, names) allocates; the
    // per-reference path must not.
    EXPECT_EQ(short_run, long_run);
}

TEST(AllocFree, ConcurrentCacheAccessAndProbeDoNotAllocate)
{
    Expected<std::unique_ptr<svc::ConcurrentCache>> e =
        svc::ConcurrentCache::create(mem::CacheGeometry(16384, 32, 8));
    ASSERT_TRUE(e.ok());
    std::unique_ptr<svc::ConcurrentCache> engine = e.take();

    // A working set of 4x capacity: hits, misses, fills, clean and
    // dirty evictions all occur.
    const std::uint64_t blocks = 4 * 16384 / 32;
    // One-time lazy initialization (kernel dispatch) is not counted.
    engine->access(0, false);
    engine->probe(0);
    std::uint64_t before = allocs();
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        mem::BlockAddr b = (i * 2654435761u) % blocks;
        hits += engine->access(b, i % 3 == 0).hit;
        hits += engine->probe(b ^ 1).hit;
    }
    EXPECT_EQ(allocs() - before, 0u);
    EXPECT_GT(hits, 0u);
}

/** Allocations made by 100k admitted Session::request calls, mixed
 *  probes and accesses, through a service configured by @p cfg. */
std::uint64_t
sessionRequestAllocs(const svc::SvcConfig &cfg)
{
    Expected<std::unique_ptr<svc::CacheService>> e =
        svc::CacheService::create(mem::CacheGeometry(16384, 32, 8),
                                  cfg);
    EXPECT_TRUE(e.ok());
    std::unique_ptr<svc::CacheService> service = e.take();
    Expected<svc::Session *> opened = service->openSession("alloc");
    EXPECT_TRUE(opened.ok());
    svc::Session *s = opened.take();

    const std::uint64_t blocks = 4 * 16384 / 32;
    // One-time lazy initialization (kernel dispatch) is not counted.
    EXPECT_TRUE(s->request(svc::OpKind::Access, 0, false).ok());
    EXPECT_TRUE(s->request(svc::OpKind::Probe, 0, false).ok());
    std::uint64_t before = allocs();
    std::uint64_t completed = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        mem::BlockAddr b = (i * 2654435761u) % blocks;
        svc::OpKind kind =
            i % 2 ? svc::OpKind::Probe : svc::OpKind::Access;
        completed += s->request(kind, b, i % 3 == 0).ok();
    }
    std::uint64_t made = allocs() - before;
    EXPECT_EQ(completed, 100000u);
    return made;
}

TEST(AllocFree, AdmittedSessionRequestsDoNotAllocate)
{
    svc::SvcConfig off; // admission disabled
    EXPECT_EQ(sessionRequestAllocs(off), 0u);

    // Quota gate on, refilling a whole token per request: every
    // request runs the bucket and the (uncapped) in-flight gate,
    // and none is shed.
    svc::SvcConfig quota;
    quota.admission.enabled = true;
    quota.admission.refill_num = 1;
    quota.admission.refill_den = 1;
    EXPECT_EQ(sessionRequestAllocs(quota), 0u);
}

/** Per-request allocation bounds over 100k write requests through a
 *  quota of 4/5 token per request under @p policy: the largest
 *  count made by one admitted and by one shed request, and the
 *  number shed. Every shed's text is checked against @p want. */
struct ShedAllocs
{
    std::uint64_t max_admitted = 0;
    std::uint64_t max_shed = 0;
    std::uint64_t shed = 0;
};

ShedAllocs
writeFloodAllocs(svc::ShedPolicy policy, const std::string &want)
{
    svc::SvcConfig cfg;
    cfg.admission.enabled = true;
    cfg.admission.refill_num = 4;
    cfg.admission.refill_den = 5;
    cfg.admission.policy = policy;
    Expected<std::unique_ptr<svc::CacheService>> e =
        svc::CacheService::create(mem::CacheGeometry(16384, 32, 8),
                                  cfg);
    EXPECT_TRUE(e.ok());
    std::unique_ptr<svc::CacheService> service = e.take();
    Expected<svc::Session *> opened = service->openSession("alloc");
    EXPECT_TRUE(opened.ok());
    svc::Session *s = opened.take();

    const std::uint64_t blocks = 4 * 16384 / 32;
    // One-time lazy initialization (kernel dispatch) is not counted.
    EXPECT_TRUE(s->request(svc::OpKind::Access, 0, true).ok());
    ShedAllocs out;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        mem::BlockAddr b = (i * 2654435761u) % blocks;
        std::uint64_t before = allocs();
        Expected<svc::OpResult> r =
            s->request(svc::OpKind::Access, b, true);
        std::uint64_t made = allocs() - before;
        if (r.ok()) {
            out.max_admitted = std::max(out.max_admitted, made);
            continue;
        }
        ++out.shed;
        out.max_shed = std::max(out.max_shed, made);
        EXPECT_EQ(r.error().code(), ErrorCode::Overloaded);
        if (r.error().message() != want) {
            ADD_FAILURE() << "shed text: " << r.error().message();
            break;
        }
    }
    return out;
}

TEST(AllocFree, ShedRequestsAllocateOnlyTheirErrorText)
{
    // Drop-writes-first sheds every over-quota write (ShedWrite);
    // reject-new sheds every over-quota request (ShedQuota). The
    // shed text is built once per session: a shed copies it into
    // its Error (one allocation) and concatenates nothing.
    ShedAllocs writes = writeFloodAllocs(
        svc::ShedPolicy::DropWritesFirst,
        "tenant alloc over quota: write shed (policy "
        "drop-writes-first)");
    EXPECT_GT(writes.shed, 10000u);
    EXPECT_LE(writes.max_shed, 1u);
    EXPECT_EQ(writes.max_admitted, 0u);

    ShedAllocs quota = writeFloodAllocs(
        svc::ShedPolicy::RejectNew,
        "tenant alloc over quota (policy reject-new)");
    EXPECT_GT(quota.shed, 10000u);
    EXPECT_LE(quota.max_shed, 1u);
    EXPECT_EQ(quota.max_admitted, 0u);
}

TEST(AllocFree, AtumLikeGeneratorAllocatesRarely)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 2;
    std::uint64_t before = allocs();
    trace::AtumLikeGenerator gen(cfg);
    trace::MemRef r;
    std::uint64_t refs = 0;
    while (gen.next(r))
        ++refs;
    std::uint64_t made = allocs() - before;
    ASSERT_EQ(refs, gen.totalRefs());
    // Only footprint growth (MTF lists, Zipf CDF doubling) and the
    // per-segment process models allocate.
    EXPECT_LT(static_cast<double>(made) / static_cast<double>(refs), 0.01)
        << made << " allocations for " << refs << " references";
}

} // namespace
