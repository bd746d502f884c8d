/**
 * @file
 * Shared plumbing of the repository benchmark: command-line
 * arguments, the metric catalogue, the result report (human lines,
 * host context and the final one-line JSON result), timing and
 * quantile helpers, an in-memory span log, and a fine-grained
 * latency histogram.
 *
 * Every workload fills one Report. The catalogue fixes each
 * metric's name and unit; BENCHMARK.json at the repository root
 * lists the same names, and the benchmark's tests compare the two.
 */

#ifndef PERFBENCH_SUPPORT_H
#define PERFBENCH_SUPPORT_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (spans and latency samples). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Input size of a run: "full" is what BENCHMARK.json measures;
 *  "tiny" is the minimal size the benchmark's own tests use. */
enum class Size { Full, Tiny };

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    /** Recorded per-seed sweep digests ("" = none). */
    std::string digests_path;
    /** Directory for scratch files (.ftr input, reports, spans). */
    std::string work_dir = ".";
};

/** One metric's catalogue entry. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every workload reports untraced. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics every workload reports traced. */
const std::vector<MetricDef> &perLayerMetrics();

/** Client / worker threads: min(4, hardware threads). */
unsigned benchThreads();

/**
 * Run @p body(i) for every i in [0, n) on its own thread, the threads
 * released together once all have started, and join them. Returns
 * the seconds from the release to the last body's end; rethrows the
 * first exception a body raised.
 */
template <typename Body>
double
runThreads(unsigned n, Body body)
{
    std::atomic<bool> go{false};
    std::atomic<unsigned> ready{0};
    std::vector<std::int64_t> end_ns(n, 0);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&, i]() {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            end_ns[i] = nowNs();
        });
    }
    while (ready.load() != n)
        std::this_thread::yield();
    std::int64_t start = nowNs();
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    std::int64_t last = start;
    for (std::int64_t e : end_ns)
        last = std::max(last, e);
    return (last - start) * 1e-9;
}

/** What one benchmark run measured and checked. */
class Report
{
  public:
    /** Record metric @p name (must be in the catalogue of the
     *  run's mode). */
    void set(const std::string &name, double value);

    /** Fail the run's correctness with @p why (stderr + flag). */
    void fail(const std::string &why);

    /** Add a free-form "key": value context entry (JSON value). */
    void context(const std::string &key, const std::string &json);

    bool correct() const { return failures_.empty(); }

    std::uint64_t attempted = 0; ///< operations (jobs or requests)
    std::uint64_t failed = 0;    ///< operations that failed

    /**
     * Print the human-readable lines, the host-context line and,
     * last, the one-line JSON result with every catalogue metric of
     * the mode (metrics the workload does not exercise read 0 and
     * are listed as not applicable in the context line).
     */
    void print(const Args &args) const;

  private:
    std::map<std::string, double> values_;
    std::vector<std::pair<std::string, std::string>> context_;
    std::vector<std::string> failures_;
};

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

/** Median of @p v (0 for empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile q in [0, 1] of @p v (0 for empty). */
double quantile(std::vector<double> v, double q);

/** JSON object of @p v's sample count, minimum, quartiles and
 *  maximum. */
std::string quartilesJson(const std::vector<double> &v);

/** 64-bit FNV-1a, chainable through @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Lower-case 16-digit hex of @p v. */
std::string hex64(std::uint64_t v);

/** The recorded digest of (@p workload, @p size, @p seed) in
 *  @p path, or "" when none is recorded. Lines read
 *  "workload size seed digest"; '#' starts a comment line. */
std::string recordedDigest(const std::string &path,
                           const std::string &workload, Size size,
                           std::uint64_t seed);

/**
 * Spans kept in memory and written out once, at the end of a traced
 * run: name, start, end (steady-clock ns), the span that caused it,
 * and a free-form count (references, operations) measured at the
 * same boundary. Thread-safe.
 */
class SpanLog
{
  public:
    /** Open-and-close one span; returns its id. */
    std::uint64_t add(const std::string &name, std::uint64_t parent,
                      std::int64_t start_ns, std::int64_t end_ns,
                      std::uint64_t count = 0);

    /** Reserve an id for a span recorded later (a parent whose end
     *  is not known yet). */
    std::uint64_t reserve();

    /** Record a span under an id obtained from reserve(). */
    void put(std::uint64_t id, const std::string &name,
             std::uint64_t parent, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t count = 0);

    /** Write every span as JSON to @p path (best effort; false on
     *  IO failure). */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::uint64_t id = 0, parent = 0;
        std::string name;
        std::int64_t start_ns = 0, end_ns = 0;
        std::uint64_t count = 0;
    };
    mutable std::mutex mutex_; ///< guards spans_ and next_id_
    std::vector<Span> spans_;
    std::uint64_t next_id_ = 1;
};

/**
 * Exact-to-the-nanosecond latency histogram: one bucket per ns up
 * to 64 us, exact overflow samples above. Single-threaded; merge
 * per-thread instances after the threads join.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram() : counts_(kLinear, 0) {}

    void
    add(std::int64_t ns)
    {
        ++total_;
        sum_ns_ += static_cast<double>(ns);
        if (ns < 0)
            ns = 0;
        if (ns < static_cast<std::int64_t>(kLinear))
            ++counts_[static_cast<std::size_t>(ns)];
        else
            overflow_.push_back(ns);
    }

    void merge(const LatencyHistogram &other);

    std::uint64_t count() const { return total_; }

    double meanNs() const { return total_ ? sum_ns_ / total_ : 0.0; }

    /** The sample of rank ceil(q * count), in ns, placed linearly
     *  inside its 1 ns bucket (0 when empty). */
    double quantileNs(double q) const;

  private:
    static constexpr std::size_t kLinear = 1u << 16;
    std::vector<std::uint64_t> counts_;
    std::vector<std::int64_t> overflow_;
    std::uint64_t total_ = 0;
    double sum_ns_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_H
