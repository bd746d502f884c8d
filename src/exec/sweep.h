/**
 * @file
 * Deterministic parallel sweep execution.
 *
 * Paper sweeps replay one trace through many independent RunSpecs;
 * no mutable state is shared between runs, so they are
 * embarrassingly parallel. runSweepChecked() fans a vector of specs
 * across a work-stealing ThreadPool — each job gets its own
 * TraceSource from a caller-supplied factory; the sources may share
 * an immutable record buffer (atumTraceFactory) but never a
 * position — and returns one JobResult per spec *in submission
 * order* regardless of completion order: every successful slot is
 * bit-identical to what a serial sim::runTrace() loop over the
 * specs produces.
 *
 * With jobs == 1 the sweep bypasses the pool entirely and runs each
 * spec inline, in order, on the calling thread.
 *
 * @code
 *   std::vector<sim::RunSpec> specs = ...;
 *   exec::SweepOptions opt;
 *   opt.jobs = 4;
 *   exec::SweepResult run = exec::runSweepChecked(
 *       specs, exec::atumTraceFactory(trace_cfg), opt);
 * @endcode
 */

#ifndef ASSOC_EXEC_SWEEP_H
#define ASSOC_EXEC_SWEEP_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/job_result.h"
#include "exec/report.h"
#include "exec/thread_pool.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/trace_file.h"
#include "util/cancel.h"

namespace assoc {
namespace exec {

class FaultInjector;

/** How a sweep is executed. */
struct SweepOptions
{
    /** Worker threads; 0 = all hardware threads, 1 = serial inline
     *  (no pool). More jobs than specs never hurts: the pool is
     *  sized to min(jobs, specs). */
    unsigned jobs = 0;
    /** Optional completed-job sink (ticked once per job, from the
     *  worker that finished it). Not owned. */
    ProgressMeter *progress = nullptr;

    // --- fault tolerance; honored by runSweepChecked() only ---

    /** Extra attempts per job after the first fails. Only transient
     *  (Io) errors are retried unless retry_all_errors is set;
     *  retries are deterministic — the factory rebuilds the same
     *  trace, so a genuinely deterministic failure fails again. */
    unsigned max_retries = 1;
    /** Retry every failure class, not just transient Io errors. */
    bool retry_all_errors = false;
    /** Fault source for tests/fuzzing (not owned; may be null). */
    FaultInjector *inject = nullptr;
    /** Cooperative cancellation (not owned; may be null). Jobs not
     *  yet started when it trips are marked Cancelled; running jobs
     *  drain normally. */
    CancelToken *cancel = nullptr;
    /** Write a fresh checkpoint journal here ("" = none). */
    std::string journal_path;
    /** Resume from this journal: slots it holds are restored
     *  verbatim and only the rest run ("" = none). New completions
     *  are appended to it. */
    std::string resume_path;
    /** Spec/trace identity hash stamped into the journal header and
     *  validated on resume (see hashSpecs()). */
    std::uint64_t spec_hash = 0;

    // --- runaway-work defenses (see util/cancel.h) ---

    /** Per-job deadline, nanoseconds (0 = none). A job past it is
     *  cancelled by the watchdog, marked TimedOut, and retried once
     *  under the normal max_retries policy (timeouts count as
     *  transient: the machine may simply have been overloaded). */
    std::uint64_t job_timeout_ns = 0;
    /** Whole-sweep deadline, nanoseconds from entry (0 = none).
     *  When it passes, running jobs are cancelled and unstarted
     *  jobs are marked TimedOut without running. */
    std::uint64_t sweep_deadline_ns = 0;
    /** Global memory budget for all concurrent jobs, bytes
     *  (0 = unlimited). */
    std::uint64_t mem_budget = 0;
    /** Per-job memory budget, bytes (0 = unlimited); charges also
     *  count against mem_budget. */
    std::uint64_t job_mem_budget = 0;
    /** Watchdog sampling/escalation tuning (log=false in tests). */
    Watchdog::Options watchdog;
};

/**
 * Builds one fresh TraceSource per job. Called once per job attempt,
 * from that job's worker thread, with the job's submission index;
 * must be callable concurrently. Sources it returns may share
 * immutable data (and the factory may share lazily built state
 * among its copies), but each source is used by one thread only.
 * Slots restored from a resume journal never call it.
 */
using TraceFactory =
    std::function<std::unique_ptr<trace::TraceSource>(std::size_t)>;

/**
 * A TraceFactory whose jobs all replay @p cfg's stream from one
 * shared, immutable buffer (trace::materializeTrace(), 8 B per
 * record: ~64 MB for the paper's 23 segments).
 *
 *  - Lazy: neither this call nor a per-job call builds the buffer;
 *    the first pull from any of the factory's sources does, while
 *    concurrent first pulls wait on a mutex and then replay. A sweep
 *    fully restored from a journal therefore never builds it.
 *  - Once: the factory and every copy of it share one build state,
 *    so the buffer is generated at most once per factory and lives
 *    until the factory and the last source holding it are gone.
 *  - Failures are not cached: the building job polls its cancel
 *    token every 64K records, and a cancelled, timed-out or
 *    over-budget build leaves nothing behind; the next pull retries.
 *  - Budget: every source charges records x sizeof(MemRef) to its
 *    job's MemBudget before delivering its first record, whichever
 *    job built the buffer, and holds the charge for its lifetime.
 *  - An invalid @p cfg fails every per-job call with the Usage error
 *    of trace::validateConfig(), as a generator would.
 */
TraceFactory atumTraceFactory(const trace::AtumLikeConfig &cfg);

/**
 * The source atumTraceFactory hands each job: a VectorTraceSource
 * over the factory's shared buffer, acquired (and built, when no
 * earlier pull did) on its first next() / nextBatch(). A failed
 * acquisition is sticky in error(), as for a file reader.
 */
class SharedTraceSource final : public trace::TraceSource
{
  public:
    /** The build state one factory shares with all its sources. */
    struct State;

    explicit SharedTraceSource(std::shared_ptr<State> state);

    bool
    next(trace::MemRef &ref) override
    {
        return (ready_ || acquire()) && replay_.next(ref);
    }

    std::size_t
    nextBatch(trace::MemRef *out, std::size_t max) override
    {
        return (ready_ || acquire()) ? replay_.nextBatch(out, max) : 0;
    }

    void reset() override { replay_.reset(); }

    const Error &error() const override { return error_; }

    void setCancelToken(const CancelToken *t) override { cancel_ = t; }

    void setMemBudget(MemBudget *b) override { budget_ = b; }

    /** The buffer this source replays: empty before its first pull. */
    const trace::SharedRefs &buffer() const { return replay_.shared(); }

  private:
    /** Charge the budget, then take (or build) the shared buffer. */
    bool acquire();

    std::shared_ptr<State> state_;
    trace::VectorTraceSource replay_;
    bool ready_ = false;
    Error error_;
    const CancelToken *cancel_ = nullptr;
    MemBudget *budget_ = nullptr;
    MemCharge charge_;
};

/**
 * A TraceFactory that opens @p path once per job, with the format
 * (din / ftr) detected from extension or magic. @p policy
 * governs damaged-record handling; under ErrorMode::Skip every job
 * sees the identical post-skip stream, so sweep results stay
 * deterministic even over a damaged trace.
 */
TraceFactory fileTraceFactory(const std::string &path,
                              ErrorPolicy policy = ErrorPolicy());

/**
 * Lower-level entry: run arbitrary independent thunks. Each job
 * must write its results into its own pre-allocated slot; jobs must
 * not share mutable state. With opts.jobs == 1 the jobs run inline
 * in vector order (the exact serial path); otherwise completion
 * order is unspecified. Exceptions are rethrown after all jobs
 * finish (first one wins).
 */
void runJobs(std::vector<std::function<void()>> jobs,
             const SweepOptions &opts = {});

/**
 * Fault-isolated sweep: run every spec in @p specs against its own
 * trace from @p make_trace; each slot records its own JobResult, so
 * one failing job never aborts the others. Per job: bounded
 * deterministic retry (opts.max_retries, Io errors only by
 * default), wall-time measurement, optional journal checkpointing
 * and resume, and cooperative cancellation.
 *
 * Slots completed by earlier attempts are bit-identical to what the
 * serial path produces — isolation only wraps the job boundary, it
 * never alters the simulation.
 *
 * Throws ErrorException only for caller mistakes (unreadable resume
 * journal, spec-hash mismatch, unwritable journal path); job
 * failures are reported in the result, never thrown.
 */
SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const TraceFactory &make_trace,
                const SweepOptions &opts = {});

} // namespace exec
} // namespace assoc

#endif // ASSOC_EXEC_SWEEP_H
