/**
 * @file
 * The two sweep workloads, both driven through
 * exec::runSweepChecked with a TraceFactory, exactly as the bench
 * binaries drive it:
 *
 *  - table4_sweep: the paper's Table 4 grid (8 configurations x L2
 *    associativity 4/8/16, Naive/MRU/Partial at t = 16) over the
 *    seed's AtumLike trace, one generator per job.
 *  - scheme_zoo_ftr: one job, a 16-way 256K-32 L2 behind a 4K-16
 *    direct-mapped L1 with all six lookup schemes attached, over the
 *    seed's trace written to .ftr during set-up and read back through
 *    exec::fileTraceFactory.
 *
 * The traced run decomposes a sweep's job time from the benchmark's
 * side of the public API: a timing TraceSource returned by the
 * factory (trace busy time, references, the job's start and end),
 * differential sweeps of the same specs with no scheme (mem) or one
 * scheme (each core kind), and JobResult / report timings (exec).
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>
#include <optional>

#include "exec/journal.h"
#include "exec/report.h"
#include "exec/sweep.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/ftr_writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace assoc;

constexpr unsigned kTagBits = 16;

const std::vector<core::SchemeKind> kAllKinds = {
    core::SchemeKind::Traditional, core::SchemeKind::Naive,
    core::SchemeKind::Mru,         core::SchemeKind::Partial,
    core::SchemeKind::WayMemo,     core::SchemeKind::WayPredict,
};

/** "traditional", "naive", "mru", ...: the metric-name spelling. */
std::string
kindLabel(core::SchemeKind kind)
{
    std::string s = core::schemeKindName(kind);
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The seed's trace: cold-started segments of the generator's
 *  default length (350k references, as in bench_table4), fewer of
 *  them than its 23; one 20k segment at the tests' tiny size. */
trace::AtumLikeConfig
traceConfigFor(const Args &args)
{
    trace::AtumLikeConfig cfg;
    cfg.seed = splitmix64(args.seed);
    cfg.segments = args.size == Size::Full ? 2 : 1;
    if (args.size == Size::Tiny)
        cfg.refs_per_segment = 20000;
    cfg.flush_between_segments = true;
    return cfg;
}

core::SchemeSpec
schemeOf(core::SchemeKind kind, unsigned assoc)
{
    core::SchemeSpec s;
    if (kind == core::SchemeKind::Partial)
        s = core::SchemeSpec::paperPartial(assoc, kTagBits);
    s.kind = kind;
    s.tag_bits = kTagBits;
    return s;
}

std::vector<sim::RunSpec>
table4Specs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned assoc : {4u, 8u, 16u}) {
        for (const sim::Table4Config &cfg : sim::table4Configs()) {
            sim::RunSpec spec;
            spec.hier = mem::HierarchyConfig{
                mem::CacheGeometry(cfg.l1_bytes, cfg.l1_block, 1),
                mem::CacheGeometry(cfg.l2_bytes, cfg.l2_block, assoc),
                true};
            for (core::SchemeKind k :
                 {core::SchemeKind::Naive, core::SchemeKind::Mru,
                  core::SchemeKind::Partial})
                spec.schemes.push_back(schemeOf(k, assoc));
            specs.push_back(spec);
        }
    }
    return specs;
}

std::vector<sim::RunSpec>
zooSpecs()
{
    sim::RunSpec spec;
    spec.hier = mem::HierarchyConfig{mem::CacheGeometry(4096, 16, 1),
                                     mem::CacheGeometry(262144, 32, 16),
                                     true};
    for (core::SchemeKind k : kAllKinds)
        spec.schemes.push_back(schemeOf(k, 16));
    return {spec};
}

/** An L2 observer that does nothing. Attached alone, it makes the
 *  hierarchy decode the per-access set snapshot that schemes read,
 *  without any scheme: that decode is mem work. Stateless, so every
 *  job may share it. */
class NullObserver : public mem::L2Observer
{
  public:
    void observe(const mem::L2AccessView &) override {}
};

NullObserver g_null_observer;

/** @p specs with only @p kind attached (none when empty): the
 *  differential sweeps of the traced run. */
std::vector<sim::RunSpec>
withOnly(std::vector<sim::RunSpec> specs,
         std::optional<core::SchemeKind> kind)
{
    for (sim::RunSpec &s : specs) {
        s.schemes.clear();
        if (kind)
            s.schemes.push_back(schemeOf(*kind, s.hier.l2.assoc()));
        else
            s.extra_observers.push_back(&g_null_observer);
    }
    return specs;
}

/** A set-up workload: what a user builds before calling the sweep. */
struct SweepInputs
{
    std::vector<sim::RunSpec> specs;
    exec::TraceFactory factory;
    trace::AtumLikeConfig trace_cfg;
    /** Records (flush markers included) in one pass of the trace:
     *  what every job must consume. */
    std::uint64_t distinct_refs = 0;
    std::string ftr_path; ///< scheme_zoo_ftr's input file
    /** Concurrent callers of the sweep, each calling it once per
     *  round: one for table4_sweep, whose 24 jobs already fill the
     *  pool; min(4, nproc) for the one-job scheme_zoo_ftr. */
    unsigned clients = 1;
};

SweepInputs
setUp(const Args &args)
{
    SweepInputs in;
    in.trace_cfg = traceConfigFor(args);
    trace::AtumLikeGenerator gen(in.trace_cfg);
    trace::MemRef r;
    if (args.workload == "table4_sweep") {
        in.specs = table4Specs();
        in.factory = exec::atumTraceFactory(in.trace_cfg);
        while (gen.next(r))
            ++in.distinct_refs;
        return in;
    }
    in.specs = zooSpecs();
    in.clients = benchThreads();
    in.ftr_path = args.work_dir + "/scheme_zoo_ftr-" +
                  std::to_string(args.seed) + ".ftr";
    trace::FtrWriter writer(in.ftr_path);
    while (gen.next(r))
        writer.add(r);
    Expected<void> done = writer.finish();
    if (!done.ok())
        throwError(Error(done.error()).withContext("writing the .ftr"));
    in.distinct_refs = writer.written();
    in.factory = exec::fileTraceFactory(in.ftr_path);
    return in;
}

/** Digest of one job's outcome (its RunOutput encoding when ok). */
std::uint64_t
jobDigest(const exec::JobResult &job)
{
    if (!job.ok())
        return fnv1a(std::string("not-ok:") +
                     exec::jobStatusName(job.status));
    return fnv1a(exec::encodeRunOutput(job.output));
}

std::uint64_t
sweepDigest(const std::vector<std::uint64_t> &job_digests)
{
    std::uint64_t h = fnv1a("perfbench-sweep");
    for (std::uint64_t d : job_digests)
        h = fnv1a(hex64(d), h);
    return h;
}

/** Per-job timing recorded by the TimingSource of one job. */
struct JobTiming
{
    std::int64_t start_ns = 0; ///< factory call (the job's start)
    std::int64_t end_ns = 0;   ///< source destroyed (the job's end)
    std::int64_t busy_ns = 0;  ///< inside the trace source
    std::uint64_t refs = 0;    ///< records the source produced
};

/**
 * A transparent TraceSource wrapper that times every call into the
 * wrapped source (trace-layer busy time) and stamps the job's end
 * when the sweep destroys it. Status and attachments forward to the
 * inner source, as for the library's own wrappers.
 */
class TimingSource : public trace::TraceSource
{
  public:
    TimingSource(std::unique_ptr<trace::TraceSource> inner,
                 JobTiming &timing)
        : inner_(std::move(inner)), timing_(timing)
    {}

    TimingSource(const TimingSource &) = delete;
    TimingSource &operator=(const TimingSource &) = delete;

    ~TimingSource() override { timing_.end_ns = nowNs(); }

    bool
    next(trace::MemRef &ref) override
    {
        std::int64_t t0 = nowNs();
        bool ok = inner_->next(ref);
        timing_.busy_ns += nowNs() - t0;
        timing_.refs += ok;
        return ok;
    }

    std::size_t
    nextBatch(trace::MemRef *out, std::size_t max) override
    {
        std::int64_t t0 = nowNs();
        std::size_t n = inner_->nextBatch(out, max);
        timing_.busy_ns += nowNs() - t0;
        timing_.refs += n;
        return n;
    }

    void
    reset() override
    {
        std::int64_t t0 = nowNs();
        inner_->reset();
        timing_.busy_ns += nowNs() - t0;
    }

    const Error &error() const override { return inner_->error(); }

    std::uint64_t
    skippedRecords() const override
    {
        return inner_->skippedRecords();
    }

    void
    setCancelToken(const CancelToken *t) override
    {
        inner_->setCancelToken(t);
    }

    void setMemBudget(MemBudget *b) override { inner_->setMemBudget(b); }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    JobTiming &timing_;
};

/** One call of the sweep plus its report, as a user makes it. */
struct SweepRun
{
    exec::SweepResult result;
    double wall_s = 0.0;   ///< runSweepChecked + writeSweepJsonFile
    double report_s = 0.0; ///< writeSweepJsonFile alone
    std::int64_t start_ns = 0;
    std::vector<std::uint64_t> job_digests;
    std::uint64_t digest = 0;
    bool report_ok = true;
    std::vector<JobTiming> timings; ///< traced sweeps only

    /** Sum over jobs of the attempt wall time, seconds. */
    double
    jobSeconds() const
    {
        double s = 0.0;
        for (const exec::JobResult &j : result.jobs)
            s += j.wall_ns * 1e-9;
        return s;
    }

    std::uint64_t
    procRefs() const
    {
        std::uint64_t n = 0;
        for (const exec::JobResult &j : result.jobs)
            n += j.ok() ? j.output.stats.proc_refs : 0;
        return n;
    }

    std::uint64_t
    failedJobs() const
    {
        return result.jobs.size() -
               static_cast<std::size_t>(std::count_if(
                   result.jobs.begin(), result.jobs.end(),
                   [](const exec::JobResult &j) { return j.ok(); }));
    }

    double
    traceBusySeconds() const
    {
        double s = 0.0;
        for (const JobTiming &t : timings)
            s += t.busy_ns * 1e-9;
        return s;
    }
};

unsigned
sweepWorkers(const std::vector<sim::RunSpec> &specs)
{
    return static_cast<unsigned>(
        std::min<std::size_t>(benchThreads(), specs.size()));
}

SweepRun
runSweepOnce(const std::vector<sim::RunSpec> &specs,
             const exec::TraceFactory &factory, bool traced,
             const std::string &report_path)
{
    SweepRun run;
    exec::SweepOptions opts;
    opts.jobs = sweepWorkers(specs);
    exec::TraceFactory make = factory;
    if (traced) {
        run.timings.resize(specs.size());
        make = [&factory, &run](std::size_t i) {
            JobTiming &t = run.timings[i];
            t = JobTiming();
            t.start_ns = nowNs();
            return std::unique_ptr<trace::TraceSource>(
                new TimingSource(factory(i), t));
        };
    }
    run.start_ns = nowNs();
    Clock::time_point t0 = Clock::now();
    run.result = exec::runSweepChecked(specs, make, opts);
    Clock::time_point t1 = Clock::now();
    run.report_ok =
        exec::writeSweepJsonFile(report_path, specs, run.result).ok();
    run.report_s = secondsSince(t1);
    run.wall_s = secondsSince(t0);
    for (const exec::JobResult &j : run.result.jobs)
        run.job_digests.push_back(jobDigest(j));
    run.digest = sweepDigest(run.job_digests);
    return run;
}

/**
 * The digest this seed must reproduce: the recorded one, else a
 * serial reference computed here with sim::runTrace over a fresh
 * generator per spec (bypassing exec and, for scheme_zoo_ftr, the
 * .ftr round trip).
 */
std::string
referenceDigest(const Args &args, const SweepInputs &in,
                std::string *source)
{
    std::string recorded =
        recordedDigest(args.digests_path, args.workload, args.size,
                       args.seed);
    if (!recorded.empty()) {
        *source = "recorded";
        return recorded;
    }
    *source = "serial-reference";
    std::vector<std::uint64_t> digests;
    for (const sim::RunSpec &spec : in.specs) {
        trace::AtumLikeGenerator gen(in.trace_cfg);
        exec::JobResult job;
        job.status = exec::JobStatus::Ok;
        job.output = sim::runTrace(gen, spec);
        digests.push_back(jobDigest(job));
    }
    return hex64(sweepDigest(digests));
}

/** What is wrong with one finished sweep (empty when nothing):
 *  failed jobs, jobs that did not consume the whole trace, and a
 *  report that could not be written. */
std::vector<std::string>
sweepProblems(const SweepRun &run, const SweepInputs &in)
{
    std::vector<std::string> out;
    if (!run.report_ok)
        out.push_back("writeSweepJsonFile failed");
    for (std::size_t i = 0; i < run.result.jobs.size(); ++i) {
        const exec::JobResult &j = run.result.jobs[i];
        if (!j.ok()) {
            out.push_back("job " + std::to_string(i) + " " +
                          exec::jobStatusName(j.status) + ": " +
                          j.error.text());
            continue;
        }
        const mem::HierarchyStats &st = j.output.stats;
        if (st.proc_refs + st.flushes != in.distinct_refs)
            out.push_back("job " + std::to_string(i) + " consumed " +
                          std::to_string(st.proc_refs + st.flushes) +
                          " records, the trace holds " +
                          std::to_string(in.distinct_refs));
    }
    return out;
}

/** What the untimed checks need of one untraced sweep; kept instead
 *  of the results so memory does not grow with the run length. */
struct SweepSummary
{
    double wall_s = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t failed_jobs = 0;
    std::uint64_t digest = 0;
    std::vector<double> job_us;
    std::vector<std::string> problems;
};

/** One traced round: every phase run by every client. */
struct TracedRound
{
    std::vector<SweepRun> untraced, full, none; ///< per client
    std::vector<std::vector<SweepRun>> only;    ///< per kind, client
};

/** Add client @p c's per-layer values of round @p r to @p per (one
 *  sample per round and client) and its traced sweep to @p spans. */
void
addLayerMetrics(const SweepInputs &in, const TracedRound &r, unsigned c,
                std::map<std::string, std::vector<double>> &per,
                SpanLog &spans)
{
    auto add = [&per](const std::string &k, double v) {
        per[k].push_back(v);
    };
    const std::size_t jobs = in.specs.size();
    const SweepRun &full = r.full[c];
    const std::string who = "client " + std::to_string(c) + " ";
    double job_full = full.jobSeconds();
    double trace_full = full.traceBusySeconds();
    std::uint64_t produced = 0, skipped = 0, l2 = 0, wb = 0;
    std::uint64_t lookups = 0, retries = 0;
    double queue_wait = 0.0;
    std::vector<double> job_s;
    for (std::size_t i = 0; i < jobs; ++i) {
        const exec::JobResult &j = full.result.jobs[i];
        produced += full.timings[i].refs;
        queue_wait +=
            (full.timings[i].start_ns - full.start_ns) * 1e-9;
        retries += j.attempts > 1 ? j.attempts - 1 : 0;
        job_s.push_back(j.wall_ns * 1e-9);
        if (!j.ok())
            continue;
        skipped += j.output.skipped_records;
        l2 += j.output.stats.read_ins + j.output.stats.write_backs;
        wb += j.output.stats.write_backs;
        for (const core::ProbeStats &ps : j.output.probes)
            lookups += ps.metered;
    }
    add("trace.busy_s", trace_full);
    add("trace.ns_per_ref", produced ? trace_full * 1e9 / produced
                                     : 0.0);
    add("trace.refs_produced", static_cast<double>(produced));
    add("trace.skipped_records", static_cast<double>(skipped));
    add("trace.redundancy",
        static_cast<double>(produced) / in.distinct_refs);

    double job_none = r.none[c].jobSeconds();
    double mem_self = job_none - r.none[c].traceBusySeconds();
    add("mem.self_s", mem_self);
    add("mem.ns_per_ref", mem_self * 1e9 / full.procRefs());
    add("mem.l2_accesses", static_cast<double>(l2));
    add("mem.write_backs", static_cast<double>(wb));

    // core: one-scheme sweeps minus the no-scheme sweep. The
    // workload's own schemes sum to its observe time.
    double observe = 0.0;
    for (std::size_t k = 0; k < kAllKinds.size(); ++k) {
        const SweepRun &only = r.only[k][c];
        double delta = only.jobSeconds() - job_none;
        std::uint64_t n = 0;
        for (const exec::JobResult &j : only.result.jobs)
            if (j.ok())
                n += j.output.probes[0].metered;
        add("core." + kindLabel(kAllKinds[k]) + ".ns_per_lookup",
            n ? delta * 1e9 / n : 0.0);
        for (const core::SchemeSpec &s : in.specs[0].schemes)
            if (s.kind == kAllKinds[k])
                observe += delta;
    }
    add("core.observe_s", observe);
    add("core.ns_per_lookup", lookups ? observe * 1e9 / lookups
                                      : 0.0);
    add("sim.residual_s", job_full - trace_full - mem_self - observe);

    add("exec.jobs", static_cast<double>(jobs));
    add("exec.failed_jobs", static_cast<double>(full.failedJobs()));
    add("exec.retries", static_cast<double>(retries));
    add("exec.queue_wait_s", queue_wait);
    add("exec.job_s_p50", quantile(job_s, 0.5));
    add("exec.job_s_max", quantile(job_s, 1.0));
    add("exec.worker_busy_frac",
        job_full / (sweepWorkers(in.specs) * full.wall_s));
    add("exec.report_s", full.report_s);

    add("bench.failed_frac",
        static_cast<double>(full.failedJobs()) / jobs);
    add("bench.tracing_overhead_s",
        full.wall_s - r.untraced[c].wall_s);
    add("bench.tracing_overhead_frac",
        full.wall_s / r.untraced[c].wall_s - 1.0);

    // Spans: the traced sweep, its jobs, and each job's trace
    // time (an aggregate of every call into the source).
    std::uint64_t sweep_id = spans.reserve();
    for (std::size_t i = 0; i < jobs; ++i) {
        const JobTiming &t = full.timings[i];
        std::uint64_t job_id = spans.add(
            "job " + std::to_string(i), sweep_id, t.start_ns,
            t.end_ns, t.refs);
        spans.add("trace (aggregate)", job_id, t.start_ns,
                  t.start_ns + t.busy_ns, t.refs);
    }
    std::int64_t end_ns =
        full.start_ns + static_cast<std::int64_t>(full.wall_s * 1e9);
    spans.put(sweep_id, who + "sweep", 0, full.start_ns, end_ns,
              jobs);
    spans.add("report", sweep_id,
              end_ns - static_cast<std::int64_t>(full.report_s * 1e9),
              end_ns, jobs);
}

void
measure(const Args &args, const SweepInputs &in, Report &report,
        const std::string &base, const std::string &expect,
        std::vector<double> setup_s, SpanLog &spans)
{
    const std::size_t jobs = in.specs.size();
    auto reportPath = [&base, &in](unsigned c) {
        return base + (in.clients > 1 ? ".client" + std::to_string(c)
                                      : std::string()) +
               ".report.json";
    };
    std::uint64_t attempted = 0, failed = 0;
    std::string observed;
    auto account = [&](const std::string &label,
                       const std::vector<std::string> &problems,
                       std::uint64_t failed_jobs, std::uint64_t digest) {
        for (const std::string &p : problems)
            report.fail(label + ": " + p);
        attempted += jobs;
        failed += failed_jobs;
        if (observed.empty())
            observed = hex64(digest);
        if (hex64(digest) != expect) {
            report.fail(label + ": digest " + hex64(digest) +
                        " != expected " + expect);
            failed += jobs - failed_jobs;
        }
    };

    Clock::time_point start = Clock::now();
    if (!args.trace) {
        // Rounds: a set-up, timed for setup_s but outside the
        // throughput window (its product is dropped: the run already
        // holds an identical one), then one sweep by every client at
        // once. Set-ups spread over the run see the same host
        // episodes as the sweeps.
        std::vector<SweepSummary> sums;
        double window = 0.0;
        do {
            Clock::time_point t0 = Clock::now();
            (void)setUp(args);
            setup_s.push_back(secondsSince(t0));
            std::vector<SweepRun> runs(in.clients);
            window += runThreads(in.clients, [&](unsigned c) {
                runs[c] = runSweepOnce(in.specs, in.factory, false,
                                       reportPath(c));
            });
            for (const SweepRun &run : runs) {
                SweepSummary sum;
                sum.wall_s = run.wall_s;
                sum.refs = run.procRefs();
                sum.failed_jobs = run.failedJobs();
                sum.digest = run.digest;
                for (const exec::JobResult &j : run.result.jobs)
                    sum.job_us.push_back(j.wall_ns * 1e-3);
                sum.problems = sweepProblems(run, in);
                sums.push_back(std::move(sum));
            }
        } while (secondsSince(start) < args.seconds);
        // Throughput is the work of every round over the rounds'
        // total time: under host noise that comes in episodes of
        // seconds, a total is steadier than a median of sweeps,
        // which jumps between the fast and the slow episodes.
        report.set("setup_s", median(setup_s));
        report.set("peak_rss_mb", peakRssMb());
        std::uint64_t refs = 0, sweeps = 0;
        std::vector<double> sweep_s, job_us;
        for (const SweepSummary &sum : sums) {
            account("client " + std::to_string(sweeps % in.clients) +
                        " sweep " + std::to_string(sweeps),
                    sum.problems, sum.failed_jobs, sum.digest);
            ++sweeps;
            refs += sum.refs;
            sweep_s.push_back(sum.wall_s);
            job_us.insert(job_us.end(), sum.job_us.begin(),
                          sum.job_us.end());
        }
        report.set("refs_per_s", refs / window);
        report.set("ops_per_s", sweeps * jobs / window);
        report.set("p50_us", quantile(job_us, 0.50));
        report.set("p99_us", quantile(job_us, 0.99));
        report.attempted = attempted;
        report.failed = failed;
        report.context("observed_digest", jsonString(observed));
        report.context("sweeps", std::to_string(sweeps));
        report.context("sweep_s_quartiles", quartilesJson(sweep_s));
        report.context("setup_s_quartiles", quartilesJson(setup_s));
        report.context("latency_samples",
                       std::to_string(job_us.size()));
        report.context("latency_unit", "\"job wall time\"");
        return;
    }

    // Traced: rounds of {untraced, traced, no-scheme, one-scheme x6}
    // sweeps over identical inputs until the time is spent, each
    // phase run by every client at once as in the untraced run.
    auto phase = [&](const std::vector<sim::RunSpec> &specs,
                     bool traced) {
        std::vector<SweepRun> out(in.clients);
        runThreads(in.clients, [&](unsigned c) {
            out[c] = runSweepOnce(specs, in.factory, traced,
                                  reportPath(c));
        });
        return out;
    };
    std::vector<TracedRound> rounds;
    do {
        TracedRound r;
        r.untraced = phase(in.specs, false);
        r.full = phase(in.specs, true);
        r.none = phase(withOnly(in.specs, std::nullopt), true);
        for (core::SchemeKind k : kAllKinds)
            r.only.push_back(phase(withOnly(in.specs, k), true));
        rounds.push_back(std::move(r));
    } while (secondsSince(start) < args.seconds);

    std::map<std::string, std::vector<double>> per;
    for (const TracedRound &r : rounds) {
        for (unsigned c = 0; c < in.clients; ++c) {
            const std::string who = "client " + std::to_string(c) + " ";
            account(who + "untraced sweep",
                    sweepProblems(r.untraced[c], in),
                    r.untraced[c].failedJobs(), r.untraced[c].digest);
            account(who + "traced sweep", sweepProblems(r.full[c], in),
                    r.full[c].failedJobs(), r.full[c].digest);
            for (const std::string &p : sweepProblems(r.none[c], in))
                report.fail(who + "no-scheme sweep: " + p);
            for (std::size_t k = 0; k < kAllKinds.size(); ++k)
                for (const std::string &p :
                     sweepProblems(r.only[k][c], in))
                    report.fail(who + "only-" +
                                kindLabel(kAllKinds[k]) + " sweep: " + p);
            addLayerMetrics(in, r, c, per, spans);
        }
    }
    for (const auto &[name, values] : per)
        report.set(name, median(values));
    report.attempted = attempted;
    report.failed = failed;
    report.context("observed_digest", jsonString(observed));
    report.context("rounds", std::to_string(rounds.size()));
}

} // namespace

void
runSweepWorkload(const Args &args, Report &report)
{
    Clock::time_point t0 = Clock::now();
    SweepInputs in = setUp(args);
    std::vector<double> setup_s = {secondsSince(t0)};

    std::string source;
    std::string expect = referenceDigest(args, in, &source);
    report.context("digest_source", jsonString(source));
    report.context("expected_digest", jsonString(expect));
    report.context("jobs", std::to_string(in.specs.size()));
    report.context("workers", std::to_string(sweepWorkers(in.specs)));
    report.context("clients", std::to_string(in.clients));
    report.context("trace_records", std::to_string(in.distinct_refs));

    SpanLog spans;
    std::string base = args.work_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed);
    measure(args, in, report, base, expect, std::move(setup_s), spans);
    if (args.trace) {
        std::string path = base + ".spans.json";
        if (spans.write(path))
            report.context("spans", jsonString(path));
    }
    if (!in.ftr_path.empty())
        std::remove(in.ftr_path.c_str());
}

} // namespace perfbench
