/**
 * @file
 * Streaming trace-source interface and a simple in-memory source.
 *
 * Sources are resettable so every configuration replays the
 * byte-identical stream. File and generator sources stream; a trace
 * replayed by many sweep jobs is materialized once into a SharedRefs
 * buffer (8 B per record) that every job's VectorTraceSource reads.
 */

#ifndef ASSOC_TRACE_TRACE_SOURCE_H
#define ASSOC_TRACE_TRACE_SOURCE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/memref.h"
#include "util/cancel.h"
#include "util/error.h"

namespace assoc {
namespace trace {

/** Abstract resettable stream of memory references. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     * @param ref output record, valid only when true is returned.
     * @return false at end of trace, or when the source failed —
     *         callers distinguish the two via error().
     */
    virtual bool next(MemRef &ref) = 0;

    /** Rewind to the beginning; the same stream replays. */
    virtual void reset() = 0;

    /**
     * Produce up to @p max references into @p out. Returns how many
     * were produced; fewer than @p max only at end of trace (or on
     * failure — check error(), exactly as with next()). The default
     * simply loops next(); sources with contiguous backing override
     * it to amortize the per-record virtual dispatch (the batched
     * replay path in mem::TwoLevelHierarchy::run). The stream is
     * identical to repeated next() calls by contract.
     */
    virtual std::size_t
    nextBatch(MemRef *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /**
     * Status of the stream. File-backed sources record malformed
     * input here (per their ErrorPolicy) instead of throwing;
     * in-memory sources are always ok.
     */
    virtual const Error &error() const { return okError(); }

    /** True when the stream stopped on an error rather than EOF. */
    bool failed() const { return error().failed(); }

    /** Malformed records tolerated so far (ErrorMode::Skip). */
    virtual std::uint64_t skippedRecords() const { return 0; }

    /**
     * Attach a cooperative cancel token (not owned; null detaches).
     * File-backed sources poll it every few hundred records and
     * stop with its structured error, so a cancelled job never
     * spends minutes finishing a doomed read. In-memory sources
     * ignore it — the simulation loop already checkpoints.
     */
    virtual void setCancelToken(const CancelToken *) {}

    /**
     * Attach a memory budget (not owned; null detaches). Sources
     * with input-proportional buffers charge them here; a malformed
     * input that balloons a buffer then fails with a structured
     * budget error instead of an OOM.
     */
    virtual void setMemBudget(MemBudget *) {}

  protected:
    /** Shared "no error" singleton for sources that cannot fail. */
    static const Error &
    okError()
    {
        static const Error ok;
        return ok;
    }
};

/** Throw the source's Error when streaming stopped on a failure. */
inline void
throwIfFailed(const TraceSource &src)
{
    if (src.failed())
        throwError(Error(src.error()));
}

/**
 * An immutable reference buffer that many sources may replay at
 * once: nobody writes it after it is built, so concurrent readers
 * need no lock.
 */
using SharedRefs = std::shared_ptr<const std::vector<MemRef>>;

/**
 * Trace source over an in-memory vector: small test traces, and the
 * replay of one materialized trace (materializeTrace()) by every job
 * of a sweep. Sources built from the same SharedRefs share the
 * records; each keeps only its own position.
 */
class VectorTraceSource final : public TraceSource
{
  public:
    VectorTraceSource() : VectorTraceSource(std::vector<MemRef>()) {}
    explicit VectorTraceSource(std::vector<MemRef> refs)
        : refs_(std::make_shared<const std::vector<MemRef>>(
              std::move(refs)))
    {}
    explicit VectorTraceSource(SharedRefs refs) : refs_(std::move(refs))
    {}

    bool
    next(MemRef &ref) override
    {
        if (pos_ >= refs_->size())
            return false;
        ref = (*refs_)[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    /** Bulk copy straight out of the backing vector. */
    std::size_t
    nextBatch(MemRef *out, std::size_t max) override
    {
        std::size_t n = refs_->size() - pos_;
        if (n > max)
            n = max;
        std::copy_n(refs_->begin() + static_cast<std::ptrdiff_t>(pos_),
                    n, out);
        pos_ += n;
        return n;
    }

    /** Total number of stored references. */
    std::size_t size() const { return refs_->size(); }

    /** Access to the underlying records. */
    const std::vector<MemRef> &refs() const { return *refs_; }

    /** The buffer itself, shareable with further sources. */
    const SharedRefs &shared() const { return refs_; }

  private:
    SharedRefs refs_;
    std::size_t pos_ = 0;
};

/**
 * Wrap a source, truncating it after @p limit references.
 * Useful for quick runs of the full ATUM-like trace.
 *
 * A transparent wrapper (docs/TRACES.md): status and attachments
 * forward to the inner source, so a wrapped reader that stops on a
 * real failure is never mistaken for a clean end-of-trace.
 */
class LimitedTraceSource : public TraceSource
{
  public:
    LimitedTraceSource(TraceSource &inner, std::uint64_t limit)
        : inner_(inner), limit_(limit)
    {}

    bool
    next(MemRef &ref) override
    {
        if (count_ >= limit_)
            return false;
        if (!inner_.next(ref))
            return false;
        ++count_;
        return true;
    }

    void
    reset() override
    {
        inner_.reset();
        count_ = 0;
    }

    const Error &error() const override { return inner_.error(); }

    std::uint64_t skippedRecords() const override
    {
        return inner_.skippedRecords();
    }

    void setCancelToken(const CancelToken *t) override
    {
        inner_.setCancelToken(t);
    }

    void setMemBudget(MemBudget *b) override
    {
        inner_.setMemBudget(b);
    }

  private:
    TraceSource &inner_;
    std::uint64_t limit_;
    std::uint64_t count_ = 0;
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_TRACE_SOURCE_H
