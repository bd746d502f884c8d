#include "exec/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/thread_pool.h"
#include "util/logging.h"

namespace assoc {
namespace exec {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::Cancelled: return "cancelled";
      case JobStatus::TimedOut: return "timed-out";
      case JobStatus::OverBudget: return "over-budget";
    }
    return "unknown";
}

struct SharedTraceSource::State
{
    explicit State(const trace::AtumLikeConfig &c) : cfg(c) {}

    const trace::AtumLikeConfig cfg;
    /** Held for the whole build, so concurrent first pulls wait for
     *  it and then replay. A plain mutex, not std::call_once: a
     *  build that throws must leave the state retryable. */
    std::mutex mutex;
    trace::SharedRefs refs; ///< null until a build succeeds
};

SharedTraceSource::SharedTraceSource(std::shared_ptr<State> state)
    : state_(std::move(state))
{}

bool
SharedTraceSource::acquire()
{
    if (error_.failed())
        return false;
    // Charge before the first record, whichever job builds: a job's
    // budget outcome must not depend on the schedule.
    const std::uint64_t records = state_->cfg.totalRefs();
    Expected<MemCharge> c = MemCharge::charge(
        budget_, records * sizeof(trace::MemRef),
        "shared trace buffer (" + std::to_string(records) +
            " records)");
    if (!c.ok()) {
        error_ = Error(c.error());
        return false;
    }
    charge_ = c.take();

    trace::SharedRefs refs;
    try {
        std::lock_guard<std::mutex> lock(state_->mutex);
        if (!state_->refs)
            state_->refs = trace::materializeTrace(state_->cfg, cancel_);
        refs = state_->refs;
    } catch (const ErrorException &e) {
        error_ = e.error();
        return false;
    }
    replay_ = trace::VectorTraceSource(std::move(refs));
    ready_ = true;
    return true;
}

TraceFactory
atumTraceFactory(const trace::AtumLikeConfig &cfg)
{
    Error invalid = trace::validateConfig(cfg);
    auto state = std::make_shared<SharedTraceSource::State>(cfg);
    return [invalid, state](std::size_t) {
        if (invalid.failed())
            throwError(Error(invalid));
        return std::make_unique<SharedTraceSource>(state);
    };
}

TraceFactory
fileTraceFactory(const std::string &path, ErrorPolicy policy)
{
    // Each job opens its own reader: jobs run on pool threads, and
    // TraceSource instances are single-threaded by contract. Open
    // failures surface through the source's sticky error when the
    // job first streams it, which routes through the normal
    // per-job retry/failure machinery.
    return [path, policy](std::size_t) {
        return trace::openTraceFile(path, policy);
    };
}

void
runJobs(std::vector<std::function<void()>> jobs,
        const SweepOptions &opts)
{
    unsigned want = opts.jobs == 0 ? ThreadPool::defaultThreads()
                                   : opts.jobs;
    ProgressMeter *progress = opts.progress;

    if (want == 1 || jobs.size() <= 1) {
        // The exact old serial path: no pool, no worker threads.
        for (auto &job : jobs) {
            job();
            if (progress)
                progress->tick();
        }
        return;
    }

    unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(want, jobs.size()));
    ThreadPool pool(threads);
    for (auto &job : jobs) {
        pool.submit([job = std::move(job), progress] {
            job();
            if (progress)
                progress->tick();
        });
    }
    pool.wait();
}

namespace {

/** Map any exception from one attempt onto an Error. */
Error
errorFromAttempt()
{
    try {
        throw;
    } catch (const ErrorException &e) {
        return e.error();
    } catch (const PanicError &e) {
        return Error::internal(e.what());
    } catch (const FatalError &e) {
        return Error::usage(e.what());
    } catch (const std::exception &e) {
        return Error::internal(e.what());
    } catch (...) {
        return Error::internal("unknown exception");
    }
}

/** Shared runaway-defense state for one checked sweep. */
struct SweepGuards
{
    /** Sweep-wide token: chains to the caller's (SIGINT, explicit
     *  cancel) and carries the sweep deadline. Null when the sweep
     *  has no cancellation sources at all. */
    const CancelToken *cancel = nullptr;
    /** Global budget (null when no budget flags were given). */
    MemBudget *budget = nullptr;
    /** Deadline enforcement (null when no deadline flags). */
    Watchdog *watchdog = nullptr;
};

/** Classify a failed attempt's error into a slot status. */
JobStatus
statusFromError(const Error &e)
{
    switch (e.code()) {
      case ErrorCode::Cancelled: return JobStatus::Cancelled;
      case ErrorCode::Timeout: return JobStatus::TimedOut;
      case ErrorCode::Budget: return JobStatus::OverBudget;
      default: return JobStatus::Failed;
    }
}

std::string
hex16(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Run one slot with retry, timing, deadline and fault hooks. */
JobResult
runOneJob(const std::vector<sim::RunSpec> &specs,
          const TraceFactory &make_trace, const SweepOptions &opts,
          const SweepGuards &guards, std::size_t i)
{
    JobResult res;
    const std::uint64_t spec_hash = hashSpec(specs[i]);
    unsigned attempts_allowed = 1 + opts.max_retries;
    for (unsigned attempt = 1; attempt <= attempts_allowed; ++attempt) {
        if (guards.cancel && guards.cancel->cancelled()) {
            // The sweep as a whole is over: deadline (TimedOut) or
            // cancellation (Cancelled). Keep an earlier attempt's
            // Failed status — it is more informative than "never
            // retried".
            if (res.status != JobStatus::Failed) {
                bool timed = guards.cancel->reason() ==
                             CancelToken::Reason::TimedOut;
                res.status = timed ? JobStatus::TimedOut
                                   : JobStatus::Cancelled;
                Error e = timed
                              ? Error::timeout(
                                    "sweep deadline exceeded before "
                                    "job " + std::to_string(i) +
                                    " attempt " +
                                    std::to_string(attempt))
                              : Error::cancelled(
                                    "job " + std::to_string(i) +
                                    " cancelled before attempt " +
                                    std::to_string(attempt));
                if (timed)
                    e.withContext("job spec hash " +
                                  hex16(spec_hash));
                res.error = std::move(e);
            }
            return res;
        }

        // Per-attempt token: the job deadline, chained to the
        // sweep-wide token. Fresh each attempt so a retried timeout
        // gets a full timeslice again.
        CancelToken token;
        token.setParent(guards.cancel);
        if (opts.job_timeout_ns != 0)
            token.setDeadline(Deadline::after(opts.job_timeout_ns));
        MemBudget job_budget(opts.job_mem_budget, guards.budget);
        MemBudget *budget =
            (opts.job_mem_budget != 0 || guards.budget)
                ? &job_budget
                : nullptr;
        bool guarded = guards.cancel != nullptr ||
                       opts.job_timeout_ns != 0;

        sim::RunSpec spec = specs[i];
        if (guarded)
            spec.cancel = &token;
        spec.budget = budget;

        if (guards.watchdog)
            guards.watchdog->arm(i, &token, token.deadline(),
                                 spec_hash,
                                 "attempt " + std::to_string(attempt),
                                 budget);

        res.attempts = attempt;
        auto t0 = std::chrono::steady_clock::now();
        try {
            if (opts.inject)
                opts.inject->onJobStart(i, attempt);
            std::unique_ptr<trace::TraceSource> src = make_trace(i);
            if (guarded)
                src->setCancelToken(&token);
            if (budget)
                src->setMemBudget(budget);
            if (opts.inject)
                src = opts.inject->wrapJobTrace(std::move(src), i,
                                                &token, budget);
            res.output = sim::runTrace(*src, spec);
            res.status = JobStatus::Ok;
            res.error = Error();
        } catch (...) {
            Error e = errorFromAttempt().withContext(
                "job " + std::to_string(i) + " attempt " +
                std::to_string(attempt));
            res.status = statusFromError(e);
            if (res.status == JobStatus::TimedOut ||
                res.status == JobStatus::OverBudget)
                e.withContext("job spec hash " + hex16(spec_hash));
            res.error = std::move(e);
        }
        if (guards.watchdog)
            guards.watchdog->disarm(i);
        auto t1 = std::chrono::steady_clock::now();
        res.wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0)
                .count());
        if (res.ok())
            break;
        if (res.status == JobStatus::Cancelled)
            break; // the sweep is being torn down; don't re-run
        if (res.status == JobStatus::OverBudget)
            break; // deterministic: the same spec blows the same budget
        if (res.status == JobStatus::TimedOut)
            continue; // retryable under max_retries (load may clear)
        if (!opts.retry_all_errors && !res.error.transient())
            break;
    }
    if (opts.inject)
        opts.inject->onJobDone(i);
    return res;
}

} // namespace

SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const TraceFactory &make_trace, const SweepOptions &opts)
{
    SweepResult result;
    result.jobs.resize(specs.size());

    // Sweep-wide runaway defenses. The sweep token carries the
    // whole-sweep deadline and chains to the caller's token (SIGINT,
    // explicit cancel); per-job tokens chain to it in runOneJob.
    SweepGuards guards;
    CancelToken sweep_token;
    if (opts.cancel || opts.sweep_deadline_ns != 0) {
        sweep_token.setParent(opts.cancel);
        if (opts.sweep_deadline_ns != 0)
            sweep_token.setDeadline(
                Deadline::after(opts.sweep_deadline_ns));
        guards.cancel = &sweep_token;
    }
    MemBudget global_budget(opts.mem_budget);
    if (opts.mem_budget != 0 || opts.job_mem_budget != 0)
        guards.budget = &global_budget;

    // Restore finished slots from the resume journal, if any.
    std::vector<bool> have(specs.size(), false);
    if (!opts.resume_path.empty()) {
        Expected<JournalData> data =
            readJournal(opts.resume_path, guards.budget);
        if (!data)
            throwError(Error(data.error())
                           .withContext("resuming sweep from '" +
                                        opts.resume_path + "'"));
        if (data.value().spec_hash != opts.spec_hash)
            throwError(Error::data(
                "journal '" + opts.resume_path +
                "' was written for a different sweep (spec hash " +
                std::to_string(data.value().spec_hash) + " vs " +
                std::to_string(opts.spec_hash) + ")"));
        for (auto &[idx, out] : data.value().entries) {
            if (idx >= specs.size())
                continue; // stale entry from a larger sweep shape
            JobResult &slot = result.jobs[idx];
            slot.status = JobStatus::Ok;
            slot.output = std::move(out);
            slot.from_journal = true;
            slot.attempts = 0;
            have[idx] = true;
            ++result.resumed;
        }
    }

    // Open the journal we append new completions to. When both
    // --journal and --resume are given, the fresh journal also
    // receives the restored slots, producing a compacted, complete
    // checkpoint.
    JournalWriter writer;
    std::mutex journal_mutex;
    const std::string &sink = !opts.journal_path.empty()
                                  ? opts.journal_path
                                  : opts.resume_path;
    if (!sink.empty()) {
        bool append = opts.journal_path.empty();
        Error e = writer.open(sink, opts.spec_hash, specs.size(),
                              append);
        if (e.failed())
            throwError(std::move(e));
        if (!opts.journal_path.empty()) {
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (!have[i])
                    continue;
                Error ae = writer.append(i, result.jobs[i].output);
                if (ae.failed())
                    throwError(std::move(ae));
            }
        }
    }

    // Deadline enforcement. Scoped so the watchdog thread is joined
    // before the journal drain below: once jobs are done, nothing
    // can trip tokens or log stall lines concurrently with the
    // final flush.
    {
        std::unique_ptr<Watchdog> watchdog;
        if (opts.job_timeout_ns != 0 || opts.sweep_deadline_ns != 0) {
            watchdog = std::make_unique<Watchdog>(opts.watchdog);
            guards.watchdog = watchdog.get();
        }

        std::vector<std::function<void()>> jobs;
        jobs.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (have[i]) {
                if (opts.progress)
                    opts.progress->tick();
                continue;
            }
            jobs.push_back([&specs, &make_trace, &opts, &guards,
                            &result, &writer, &journal_mutex, i] {
                JobResult r = runOneJob(specs, make_trace, opts,
                                        guards, i);
                if (r.ok() && writer.isOpen()) {
                    std::lock_guard<std::mutex> lock(journal_mutex);
                    Error e = writer.append(i, r.output);
                    if (e.failed())
                        warn(e.text()); // the result itself is good
                }
                result.jobs[i] = std::move(r);
            });
        }

        // Jobs never throw (every attempt's exception is folded into
        // the slot), so runJobs' first-exception rethrow stays
        // dormant and the pool always drains fully.
        SweepOptions pool_opts;
        pool_opts.jobs = opts.jobs;
        pool_opts.progress = opts.progress;
        runJobs(std::move(jobs), pool_opts);

        if (watchdog)
            result.stalls = watchdog->reports();
    }

    // Drain: final flush + close under the journal mutex. A SIGINT
    // (or watchdog grace-period escalation) that lands while workers
    // are still appending cannot race this — appends hold the same
    // mutex, and the pool and watchdog are both gone by now.
    if (writer.isOpen()) {
        std::lock_guard<std::mutex> lock(journal_mutex);
        Error e = writer.close();
        if (e.failed())
            warn(e.text());
    }

    for (const JobResult &j : result.jobs)
        if (j.status == JobStatus::Cancelled)
            result.interrupted = true;
    return result;
}

} // namespace exec
} // namespace assoc
