/**
 * @file
 * The two service workloads: min(4, nproc) client threads, one
 * svc::Session each, in a closed loop (each thread issues its next
 * request when the previous reply arrives), over a 64 KiB, 32 B
 * block, 8-way LRU cache with one lock stripe per set.
 *
 *  - svc_read_mostly: 95% probes, 5% accesses (30% of them dirty)
 *    over a working set of half the capacity, prefilled; admission
 *    off. Exercises the optimistic seqlock read path.
 *  - svc_write_overload: all accesses, half dirty, over a working set
 *    of 8x capacity; per-tenant quotas with drop-writes-first sized
 *    to shed about one request in ten, and tenant 0 issues twice its
 *    share. Exercises the locked fill / evict / write-back path and
 *    admission. The quota buckets run on each tenant's own logical
 *    time, so the larger share only makes tenant 0's stream longer:
 *    every tenant sheds the same fraction.
 *
 * Work is measured in rounds: every round builds a fresh service
 * (outside the timed window) and replays the same per-thread
 * streams, so the deterministic admission counters of every round
 * must be identical. A round's timed window ends when the first
 * client finishes its stream, so throughput and latency are measured
 * with every client active; the rest of tenant 0's stream runs after
 * it, untimed but checked. The traced run adds per-kind latency, direct
 * engine replays of the same streams (engine cost and lock
 * contention), and spans per round and client thread.
 */

#include <algorithm>
#include <atomic>
#include <memory>

#include "check/svc_check.h"
#include "svc/service.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace assoc;

const mem::CacheGeometry kGeom(65536, 32, 8);

/** The traffic of one workload. */
struct Traffic
{
    bool overload = false;
    double probe_frac = 0.0;
    double write_frac = 0.0;    ///< dirty share of the accesses
    std::uint32_t working_set = 0; ///< distinct blocks
    std::uint64_t ops_per_thread = 0;
};

Traffic
trafficFor(const Args &args)
{
    Traffic t;
    const std::uint32_t frames = kGeom.sets() * kGeom.assoc();
    t.overload = args.workload == "svc_write_overload";
    t.probe_frac = t.overload ? 0.0 : 0.95;
    t.write_frac = t.overload ? 0.5 : 0.3;
    t.working_set = t.overload ? 8 * frames : frames / 2;
    t.ops_per_thread = args.size == Size::Full ? 200000 : 4000;
    return t;
}

svc::SvcConfig
configFor(const Traffic &t, std::uint64_t seed)
{
    svc::SvcConfig cfg;
    cfg.engine.policy = mem::ReplPolicy::Lru;
    cfg.engine.max_stripes = 0; // one stripe per set
    if (t.overload) {
        // Logical-time buckets: past the burst a tenant earns 4/5 of
        // a token per request, so a fifth of its requests are over
        // quota and drop-writes-first sheds the dirty half of those.
        cfg.admission.enabled = true;
        cfg.admission.quota_burst = 64;
        cfg.admission.refill_num = 4;
        cfg.admission.refill_den = 5;
        cfg.admission.policy = svc::ShedPolicy::DropWritesFirst;
        cfg.admission.seed = seed;
    }
    return cfg;
}

using Stream = std::vector<check::SvcOpSpec>;

/** Per-thread request streams, a pure function of the seed, written
 *  into @p streams. Its buffers are reused, so a repeated set-up
 *  times the generation rather than fresh pages. */
void
makeStreams(const Traffic &t, std::uint64_t seed, unsigned threads,
            std::vector<Stream> &streams)
{
    streams.resize(threads);
    for (unsigned th = 0; th < threads; ++th) {
        Pcg32 rng(seed, 0x5eb0u + th);
        std::uint64_t len = t.ops_per_thread;
        if (t.overload && th == 0)
            len *= 2; // the tenant issuing twice its share
        Stream &s = streams[th];
        s.clear();
        s.reserve(len);
        for (std::uint64_t i = 0; i < len; ++i) {
            check::SvcOpSpec op;
            if (rng.uniform() < t.probe_frac) {
                op.kind = svc::OpKind::Probe;
            } else {
                op.kind = svc::OpKind::Access;
                op.is_write = rng.chance(t.write_frac);
            }
            op.block = rng.below(t.working_set);
            s.push_back(op);
        }
    }
}

struct Service
{
    std::unique_ptr<svc::CacheService> svc;
    std::vector<svc::Session *> sessions;
};

/** A service ready for a round: sessions open, cache prefilled with
 *  the first min(working set, capacity) blocks, clean. With
 *  @p record_prefill the fills go through session 0, so a recorded
 *  history starts from an empty cache as the checker's replay does. */
Service
makeService(const Traffic &t, svc::SvcConfig cfg, unsigned threads,
            bool record_prefill = false)
{
    Service s;
    Expected<std::unique_ptr<svc::CacheService>> made =
        svc::CacheService::create(kGeom, cfg);
    if (!made.ok())
        throwError(made.error());
    s.svc = made.take();
    for (unsigned th = 0; th < threads; ++th) {
        Expected<svc::Session *> sess =
            s.svc->openSession("client" + std::to_string(th));
        if (!sess.ok())
            throwError(sess.error());
        s.sessions.push_back(sess.value());
    }
    const std::uint32_t frames = kGeom.sets() * kGeom.assoc();
    for (std::uint32_t b = 0; b < std::min(t.working_set, frames); ++b) {
        if (record_prefill)
            s.sessions[0]->fill(b, false);
        else
            s.svc->engine().fill(b, false);
    }
    return s;
}

/** What one round of session traffic produced. */
struct Round
{
    /** Seconds from the release until the first client finished its
     *  stream: the window in which every client is active. Only
     *  requests issued inside it are timed; tenant 0's longer stream
     *  finishes alone after it, untimed. */
    double window_s = 0.0;
    /** Requests answered inside the window: completed, and shed. */
    std::uint64_t window_completed = 0, window_shed = 0;
    /** Inside the window: [0] every completed request; traced
     *  rounds also fill [1] probes and [2] accesses. */
    std::vector<LatencyHistogram> latency;
    svc::TenantStats totals;
    std::vector<svc::AdmissionStats> admission; ///< per session
    std::uint64_t completed = 0, shed = 0, failed = 0;
    std::vector<std::string> errors;
};

Round
runRound(const Traffic &t, const svc::SvcConfig &cfg,
         const std::vector<Stream> &streams, bool traced,
         SpanLog *spans)
{
    const unsigned n = static_cast<unsigned>(streams.size());
    Service s = makeService(t, cfg, n);
    std::vector<std::vector<LatencyHistogram>> hist(
        n, std::vector<LatencyHistogram>(traced ? 3 : 1));
    std::vector<std::uint64_t> completed(n, 0), shed(n, 0), failed(n, 0);
    std::vector<std::uint64_t> win_completed(n, 0), win_shed(n, 0);
    std::vector<std::string> first_error(n);
    std::vector<std::int64_t> begin_ns(n, 0), end_ns(n, 0);
    std::atomic<bool> closed{false};
    std::atomic<std::int64_t> closed_ns{0};

    runThreads(n, [&](unsigned th) {
        begin_ns[th] = nowNs();
        svc::Session *session = s.sessions[th];
        std::vector<LatencyHistogram> &h = hist[th];
        for (const check::SvcOpSpec &op : streams[th]) {
            const bool timed = !closed.load(std::memory_order_relaxed);
            std::int64_t t0 = nowNs();
            Expected<svc::OpResult> res =
                session->request(op.kind, op.block, op.is_write);
            std::int64_t dt = nowNs() - t0;
            if (res.ok()) {
                ++completed[th];
                if (timed) {
                    ++win_completed[th];
                    h[0].add(dt);
                    if (traced)
                        h[op.kind == svc::OpKind::Probe ? 1 : 2].add(dt);
                }
            } else if (res.error().code() == ErrorCode::Overloaded) {
                ++shed[th];
                win_shed[th] += timed;
            } else {
                if (failed[th]++ == 0)
                    first_error[th] = res.error().text();
            }
        }
        end_ns[th] = nowNs();
        if (!closed.exchange(true))
            closed_ns.store(end_ns[th]);
    });

    Round r;
    r.window_s =
        (closed_ns.load() -
         *std::min_element(begin_ns.begin(), begin_ns.end())) *
        1e-9;
    r.latency.assign(traced ? 3 : 1, LatencyHistogram());
    std::uint64_t round_id = spans ? spans->reserve() : 0;
    for (unsigned th = 0; th < n; ++th) {
        for (std::size_t k = 0; k < hist[th].size(); ++k)
            r.latency[k].merge(hist[th][k]);
        r.completed += completed[th];
        r.shed += shed[th];
        r.failed += failed[th];
        r.window_completed += win_completed[th];
        r.window_shed += win_shed[th];
        if (!first_error[th].empty())
            r.errors.push_back(first_error[th]);
        r.admission.push_back(s.sessions[th]->stats().admission);
        if (spans)
            spans->add("client " + std::to_string(th), round_id,
                       begin_ns[th], end_ns[th], streams[th].size());
    }
    if (spans)
        spans->put(round_id, "round", 0,
                   *std::min_element(begin_ns.begin(), begin_ns.end()),
                   *std::max_element(end_ns.begin(), end_ns.end()),
                   r.completed + r.shed + r.failed);
    r.totals = s.svc->totalStats();
    return r;
}

/** Checks on one round; @p first is the run's first round. */
void
checkRound(const Traffic &t, const Round &r, const Round *first,
           const std::vector<Stream> &streams, const std::string &label,
           Report &report)
{
    check::ViolationLog log;
    check::checkAdmissionConservation(r.totals.admission,
                                      label + " totals", log);
    for (std::size_t th = 0; th < r.admission.size(); ++th)
        check::checkAdmissionConservation(
            r.admission[th], label + " client " + std::to_string(th),
            log);
    for (const std::string &m : log.messages())
        report.fail(m);
    std::uint64_t issued = 0;
    for (const Stream &s : streams)
        issued += s.size();
    if (r.completed + r.shed + r.failed != issued)
        report.fail(label + ": replies do not match requests issued");
    for (const std::string &e : r.errors)
        report.fail(label + ": request failed: " + e);
    if (!t.overload && r.shed != 0)
        report.fail(label + ": requests shed with admission off");
    if (r.totals.admission.completed != r.completed)
        report.fail(label + ": admission completed count " +
                    std::to_string(r.totals.admission.completed) +
                    " != replies " + std::to_string(r.completed));
    if (first) {
        for (std::size_t th = 0; th < r.admission.size(); ++th)
            if (!r.admission[th].identicalDeterministic(
                    first->admission[th]))
                report.fail(label + ": client " + std::to_string(th) +
                            " deterministic admission counters differ "
                            "from the first round");
    }
}

/** The untimed history-recording pass: a prefix of every stream,
 *  checked for per-set serializability and conservation. */
void
checkSerializable(const Traffic &t, svc::SvcConfig cfg,
                  const std::vector<Stream> &streams, Report &report)
{
    const std::size_t cap = 50000;
    std::vector<Stream> prefix;
    for (const Stream &s : streams)
        prefix.emplace_back(s.begin(),
                            s.begin() + std::min(cap, s.size()));
    cfg.record_history = true;
    cfg.history_capacity = cap + kGeom.sets() * kGeom.assoc();
    Service s = makeService(t, cfg, static_cast<unsigned>(prefix.size()),
                            true);
    runThreads(static_cast<unsigned>(prefix.size()), [&](unsigned th) {
        for (const check::SvcOpSpec &op : prefix[th])
            (void)s.sessions[th]->request(op.kind, op.block, op.is_write);
    });
    bool overflowed = false;
    std::vector<svc::HistoryEvent> events =
        s.svc->collectHistory(&overflowed);
    check::ViolationLog log;
    if (overflowed)
        log.add("history overflowed");
    check::checkSvcHistory(kGeom, cfg.engine.policy,
                           s.svc->engine().stripes(), events,
                           &s.svc->engine().cache(), log);
    check::checkAdmissionConservation(s.svc->totalStats().admission,
                                      "history pass", log);
    for (const std::string &m : log.messages())
        report.fail("serializability: " + m);
    report.context("history_events", std::to_string(events.size()));
}

/**
 * Replay the @p kind ops of every stream straight into the engine
 * (no session, no admission) on @p threads threads (1 = all streams
 * in turn on one thread); mean ns per op. Probes never mutate the
 * cache, so the access-only replay reaches the same states as the
 * mixed stream.
 */
double
engineReplayNs(const Traffic &t, const svc::SvcConfig &cfg,
               const std::vector<Stream> &streams, svc::OpKind kind,
               unsigned threads)
{
    std::vector<Stream> sub(streams.size());
    for (std::size_t th = 0; th < streams.size(); ++th)
        for (const check::SvcOpSpec &op : streams[th])
            if (op.kind == kind)
                sub[th].push_back(op);
    Service s = makeService(t, cfg, 0);
    svc::ConcurrentCache &engine = s.svc->engine();
    std::vector<double> busy_s(sub.size(), 0.0);
    std::uint64_t ops = 0;
    for (const Stream &st : sub)
        ops += st.size();
    if (ops == 0)
        return 0.0;
    auto replay = [&](std::size_t th) {
        Clock::time_point t0 = Clock::now();
        for (const check::SvcOpSpec &op : sub[th])
            (void)engine.apply(op.kind, op.block, op.is_write);
        busy_s[th] = secondsSince(t0);
    };
    if (threads == 1) {
        for (std::size_t th = 0; th < sub.size(); ++th)
            replay(th);
    } else {
        runThreads(static_cast<unsigned>(sub.size()),
                   [&](unsigned th) { replay(th); });
    }
    double total = 0.0;
    for (double b : busy_s)
        total += b;
    return total * 1e9 / ops;
}

} // namespace

void
runSvcWorkload(const Args &args, Report &report)
{
    const Traffic traffic = trafficFor(args);
    const svc::SvcConfig cfg = configFor(traffic, args.seed);
    const unsigned threads = benchThreads();

    // A set-up: the request streams, then the service with its
    // sessions and prefill. The untraced run repeats it before every
    // round, outside the timed window, so the set-up samples see the
    // same host episodes as the rounds.
    std::vector<double> setup_s;
    std::vector<Stream> streams;
    auto setUp = [&]() {
        Clock::time_point t0 = Clock::now();
        makeStreams(traffic, args.seed, threads, streams);
        Service warm = makeService(traffic, cfg, threads);
        setup_s.push_back(secondsSince(t0));
    };
    setUp();
    std::uint64_t issued = 0, probes = 0;
    for (const Stream &s : streams) {
        issued += s.size();
        for (const check::SvcOpSpec &op : s)
            probes += op.kind == svc::OpKind::Probe;
    }
    report.context("clients", std::to_string(threads));
    report.context("requests_per_round", std::to_string(issued));

    SpanLog spans;
    // Throughput is the work of every round's window over the
    // windows' total time (the service rebuild between rounds
    // excluded): steadier under episodic host noise than a median of
    // rounds.
    double answered = 0.0, served = 0.0, window_s = 0.0;
    std::map<std::string, std::vector<double>> per;
    auto add = [&per](const std::string &k, double v) {
        per[k].push_back(v);
    };
    LatencyHistogram all, by_probe, by_access;
    Round first;
    bool have_first = false;
    auto account = [&](Round &&r, const std::string &label) {
        checkRound(traffic, r, have_first ? &first : nullptr, streams,
                   label, report);
        report.attempted += r.completed + r.shed + r.failed;
        report.failed += r.failed;
        if (!have_first) {
            first = r;
            have_first = true;
        }
        return std::move(r);
    };

    Clock::time_point start = Clock::now();
    std::size_t round_no = 0;
    do {
        std::string label = "round " + std::to_string(round_no++);
        if (round_no > 1 && !args.trace)
            setUp();
        Round u = account(runRound(traffic, cfg, streams, false, nullptr),
                          label);
        answered += static_cast<double>(u.window_completed + u.window_shed);
        served += static_cast<double>(u.window_completed);
        window_s += u.window_s;
        all.merge(u.latency[0]);
        if (!args.trace)
            continue;

        Round tr = account(runRound(traffic, cfg, streams, true, &spans),
                           label + " (traced)");
        by_probe.merge(tr.latency[1]);
        by_access.merge(tr.latency[2]);
        const svc::TenantStats &st = tr.totals;
        add("bench.tracing_overhead_s", tr.window_s - u.window_s);
        add("bench.tracing_overhead_frac",
            tr.window_s / u.window_s - 1.0);
        add("svc.dirty_evictions", static_cast<double>(st.dirty_evictions));
        add("svc.hit_ratio", st.ops ? double(st.hits()) / st.ops : 0.0);
        if (st.probe_ops) {
            add("svc.optimistic_read_frac",
                double(st.optimistic_reads) / st.probe_ops);
            add("svc.seqlock_retries_per_probe",
                double(st.seqlock_retries) / st.probe_ops);
        }
        add("svc.admission.shed_quota",
            static_cast<double>(st.admission.shed_quota));
        add("svc.admission.shed_writes",
            static_cast<double>(st.admission.shed_writes));
        add("svc.admission.shed_inflight",
            static_cast<double>(st.admission.shed_inflight));
        add("svc.admission.failed",
            static_cast<double>(st.admission.failed()));
        add("bench.failed_frac",
            double(tr.shed + tr.failed) /
                (tr.completed + tr.shed + tr.failed));

        double access_ns = engineReplayNs(traffic, cfg, streams,
                                          svc::OpKind::Access, threads);
        double access_1 = engineReplayNs(traffic, cfg, streams,
                                         svc::OpKind::Access, 1);
        double probe_ns = engineReplayNs(traffic, cfg, streams,
                                         svc::OpKind::Probe, threads);
        add("svc.engine_access_ns", access_ns);
        add("svc.lock_contention_ns", access_ns - access_1);
        if (probes)
            add("svc.engine_probe_ns", probe_ns);
        double engine_mean =
            (probe_ns * probes + access_ns * (issued - probes)) / issued;
        add("svc.session_overhead_ns", u.latency[0].meanNs() - engine_mean);
    } while (secondsSince(start) < args.seconds);
    const double rss = peakRssMb();

    checkSerializable(traffic, cfg, streams, report);

    report.context("rounds", std::to_string(round_no));
    report.context("setup_s_quartiles", quartilesJson(setup_s));
    report.context("latency_samples", std::to_string(all.count()));
    report.context("latency_unit",
                   "\"Session::request, completed requests\"");
    if (!args.trace) {
        report.set("peak_rss_mb", rss);
        report.set("setup_s", median(setup_s));
        report.set("refs_per_s", served / window_s);
        report.set("ops_per_s", answered / window_s);
        report.set("p50_us", all.quantileNs(0.50) * 1e-3);
        report.set("p99_us", all.quantileNs(0.99) * 1e-3);
        return;
    }
    for (const auto &[name, values] : per)
        report.set(name, median(values));
    report.set("svc.latency_samples", static_cast<double>(all.count()));
    if (probes) {
        report.set("svc.probe_p50_us", by_probe.quantileNs(0.50) * 1e-3);
        report.set("svc.probe_p99_us", by_probe.quantileNs(0.99) * 1e-3);
    }
    report.set("svc.access_p50_us", by_access.quantileNs(0.50) * 1e-3);
    report.set("svc.access_p99_us", by_access.quantileNs(0.99) * 1e-3);
    std::string path = args.work_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".spans.json";
    if (spans.write(path))
        report.context("spans", jsonString(path));
}

} // namespace perfbench
