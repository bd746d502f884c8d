#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/kernels.h"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},     {"refs_per_s", "1/s"},
        {"ops_per_s", "1/s"}, {"p50_us", "us"},
        {"p99_us", "us"},     {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"trace.busy_s", "s"},
        {"trace.ns_per_ref", "ns"},
        {"trace.refs_produced", "count"},
        {"trace.skipped_records", "count"},
        {"trace.redundancy", "ratio"},
        {"mem.self_s", "s"},
        {"mem.ns_per_ref", "ns"},
        {"mem.l2_accesses", "count"},
        {"mem.write_backs", "count"},
        {"core.observe_s", "s"},
        {"core.ns_per_lookup", "ns"},
        {"core.traditional.ns_per_lookup", "ns"},
        {"core.naive.ns_per_lookup", "ns"},
        {"core.mru.ns_per_lookup", "ns"},
        {"core.partial.ns_per_lookup", "ns"},
        {"core.waymemo.ns_per_lookup", "ns"},
        {"core.waypredict.ns_per_lookup", "ns"},
        {"sim.residual_s", "s"},
        {"exec.jobs", "count"},
        {"exec.failed_jobs", "count"},
        {"exec.retries", "count"},
        {"exec.queue_wait_s", "s"},
        {"exec.job_s_p50", "s"},
        {"exec.job_s_max", "s"},
        {"exec.worker_busy_frac", "ratio"},
        {"exec.report_s", "s"},
        {"svc.engine_access_ns", "ns"},
        {"svc.lock_contention_ns", "ns"},
        {"svc.dirty_evictions", "count"},
        {"svc.access_p50_us", "us"},
        {"svc.access_p99_us", "us"},
        {"svc.engine_probe_ns", "ns"},
        {"svc.optimistic_read_frac", "ratio"},
        {"svc.seqlock_retries_per_probe", "ratio"},
        {"svc.hit_ratio", "ratio"},
        {"svc.probe_p50_us", "us"},
        {"svc.probe_p99_us", "us"},
        {"svc.session_overhead_ns", "ns"},
        {"svc.latency_samples", "count"},
        {"svc.admission.shed_quota", "count"},
        {"svc.admission.shed_writes", "count"},
        {"svc.admission.shed_inflight", "count"},
        {"svc.admission.failed", "count"},
        {"bench.failed_frac", "ratio"},
        {"bench.tracing_overhead_s", "s"},
        {"bench.tracing_overhead_frac", "ratio"},
    };
    return defs;
}

unsigned
benchThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    return std::min(4u, hw);
}

namespace {

/** Every value printed with all its digits. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string m = line.substr(colon + 1);
                m.erase(0, m.find_first_not_of(' '));
                return m;
            }
        }
    }
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

const char *
sizeName(Size size)
{
    return size == Size::Full ? "full" : "tiny";
}

/** Host context recorded with every result: nproc, CPU model,
 *  compiler, build type and the dispatched kernel table. */
std::string
hostContextJson()
{
    const assoc::core::LookupKernels &k =
        assoc::core::activeKernels();
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"bench_threads\": " << benchThreads()
       << ", \"cpu\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(compilerName())
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"kernels\": " << jsonString(k.name)
       << ", \"kernel_dispatch\": "
       << jsonString(assoc::core::kernelDispatchReason()) << "}";
    return os.str();
}

} // namespace

void
Report::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
Report::fail(const std::string &why)
{
    std::cerr << "perfbench: check failed: " << why << "\n";
    failures_.push_back(why);
}

void
Report::context(const std::string &key, const std::string &json)
{
    context_.emplace_back(key, json);
}

void
Report::print(const Args &args) const
{
    const std::vector<MetricDef> &defs =
        args.trace ? perLayerMetrics() : endToEndMetrics();
    std::vector<std::string> not_applicable;
    std::ostringstream metrics;
    metrics << "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        auto it = values_.find(defs[i].name);
        double v = 0.0;
        if (it == values_.end())
            not_applicable.push_back(defs[i].name);
        else
            v = it->second;
        std::printf("%-32s %24s %s%s\n", defs[i].name, num(v).c_str(),
                    defs[i].unit,
                    it == values_.end() ? "  (not applicable)" : "");
        metrics << (i ? ", " : "") << jsonString(defs[i].name)
                << ": {\"value\": " << num(v)
                << ", \"unit\": " << jsonString(defs[i].unit) << "}";
    }
    metrics << "}";

    std::ostringstream ctx;
    ctx << "{\"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"size\": " << jsonString(sizeName(args.size))
        << ", \"host\": " << hostContextJson();
    for (const auto &[k, v] : context_)
        ctx << ", " << jsonString(k) << ": " << v;
    ctx << ", \"not_applicable\": [";
    for (std::size_t i = 0; i < not_applicable.size(); ++i)
        ctx << (i ? ", " : "") << jsonString(not_applicable[i]);
    ctx << "], \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        ctx << (i ? ", " : "") << jsonString(failures_[i]);
    ctx << "]}";
    std::printf("context: %s\n", ctx.str().c_str());

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct() ? "true" : "false", attempted, failed,
                metrics.str().c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string
quartilesJson(const std::vector<double> &v)
{
    std::string out = "{\"n\": " + std::to_string(v.size());
    const char *names[] = {"min", "q1", "median", "q3", "max"};
    for (int i = 0; i < 5; ++i)
        out += ", \"" + std::string(names[i]) +
               "\": " + std::to_string(quantile(v, i * 0.25));
    return out + "}";
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

std::string
recordedDigest(const std::string &path, const std::string &workload,
               Size size, std::uint64_t seed)
{
    if (path.empty())
        return "";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string w, sz, digest;
        std::uint64_t s = 0;
        if (fields >> w >> sz >> s >> digest && w == workload &&
            sz == sizeName(size) && s == seed)
            return digest;
    }
    return "";
}

std::uint64_t
SpanLog::add(const std::string &name, std::uint64_t parent,
             std::int64_t start_ns, std::int64_t end_ns,
             std::uint64_t count)
{
    std::uint64_t id = reserve();
    put(id, name, parent, start_ns, end_ns, count);
    return id;
}

std::uint64_t
SpanLog::reserve()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

void
SpanLog::put(std::uint64_t id, const std::string &name,
             std::uint64_t parent, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({id, parent, name, start_ns, end_ns, count});
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"id\": " << s.id
            << ", \"parent\": " << s.parent
            << ", \"name\": " << jsonString(s.name)
            << ", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns
            << ", \"count\": " << s.count << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < kLinear; ++i)
        counts_[i] += other.counts_[i];
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    total_ += other.total_;
    sum_ns_ += other.sum_ns_;
}

double
LatencyHistogram::quantileNs(double q) const
{
    if (total_ == 0)
        return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    if (rank == 0)
        rank = 1;
    // Within a 1 ns bucket the rank is placed linearly, so the
    // quantile keeps sub-nanosecond resolution instead of snapping
    // to the clock's integer readings.
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kLinear; ++i) {
        if (seen + counts_[i] >= rank)
            return static_cast<double>(i) +
                   (static_cast<double>(rank - seen) - 0.5) /
                       static_cast<double>(counts_[i]);
        seen += counts_[i];
    }
    std::vector<std::int64_t> over = overflow_;
    std::sort(over.begin(), over.end());
    std::size_t idx = static_cast<std::size_t>(rank - seen - 1);
    return static_cast<double>(over[std::min(idx, over.size() - 1)]);
}

} // namespace perfbench
