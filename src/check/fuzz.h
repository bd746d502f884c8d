/**
 * @file
 * Deterministic differential fuzzing of the lookup schemes.
 *
 * Each fuzz case PCG-samples one cache hierarchy (geometry,
 * replacement policy, inclusion/write-policy knobs), one scheme
 * parameterization (tag width, MRU list length, partial k/s and
 * transform) and one synthetic reference trace, then runs a single
 * ground-truth simulation with every scheme's meter attached. The
 * InvariantAuditor validates each lookup in flight (probe bounds,
 * reference re-execution, oracle agreement, step-1 superset,
 * LRU-stack integrity) and a post-run pass cross-checks measured
 * probe statistics against the exact Section 2 identities (a Naive
 * miss always costs a probes, an MRU miss a + 1, a Traditional
 * access 1, ...).
 *
 * Everything is a pure function of (master seed, case index): every
 * failure prints a one-line `fuzz_diff --seed=... --config=...`
 * repro command (check/campaign.h) plus a minimized counterexample
 * trace.
 */

#ifndef ASSOC_CHECK_FUZZ_H
#define ASSOC_CHECK_FUZZ_H

#include <cstdint>
#include <string>
#include <vector>

#include "check/campaign.h"
#include "check/invariants.h"
#include "core/scheme.h"
#include "mem/hierarchy.h"
#include "trace/memref.h"

namespace assoc {
namespace check {

/**
 * Deliberately broken lookup variants for harness self-tests: the
 * fuzzer must *fail* when one of these replaces the real scheme.
 */
enum class BugInjection {
    None,
    /** Naive scan that never examines way 0. */
    NaiveSkip,
    /** MRU scan that under-reports its probe count by one. */
    MruUndercount,
    /** Partial compare whose step-1 filter drops a candidate. */
    PartialFilter,
    /** Way memo that trusts stale entries: a memo hit names the
     *  wrong way. */
    MemoStale,
};

/** Parse "none" / "naive-skip" / "mru-undercount" /
 *  "partial-filter" / "memo-stale". */
BugInjection bugInjectionFromString(const std::string &s);

/** The `--inject` spelling of @p bug (inverse of the parser). */
const char *bugInjectionName(BugInjection bug);

/** One sampled fuzz case: a pure function of its case seed. */
struct FuzzCase
{
    std::uint64_t case_seed = 0;
    mem::HierarchyConfig hier{mem::CacheGeometry(1024, 16, 2),
                              mem::CacheGeometry(4096, 32, 4), true};
    bool wb_optimization = true;
    unsigned tag_bits = 16;
    std::vector<core::SchemeSpec> schemes;
    std::vector<trace::MemRef> refs;

    /** One-line description for failure reports. */
    std::string describe() const;
};

/** Sample the case implied by (master seed, case index). */
FuzzCase sampleCase(std::uint64_t seed, std::uint64_t index);

/** What running one case produced. */
struct CaseResult
{
    ViolationLog log;
    std::uint64_t accesses = 0; ///< audited lookups
    std::uint64_t digest = 0;   ///< FNV-1a over all meter stats
};

/**
 * Run one case: stream its trace through its hierarchy with every
 * scheme metered and audited, then apply the post-run statistic
 * cross-checks. Exceptions (panic/fatal) are caught and logged as
 * violations. @p refs overrides the case's trace when non-null
 * (used by the minimizer).
 */
CaseResult runCase(const FuzzCase &c,
                   BugInjection inject = BugInjection::None,
                   const std::vector<trace::MemRef> *refs = nullptr);

/**
 * Shrink @p c's trace to a (1-minimal-ish) subsequence that still
 * fails, by chunked delta debugging.
 */
std::vector<trace::MemRef> minimizeTrace(const FuzzCase &c,
                                         BugInjection inject);

/** Render one reference ("R 0x12345678 pid=1"). */
std::string formatRef(const trace::MemRef &r);

/** The fuzz_diff flags that replay a scheme-fuzzer case run with
 *  @p inject. */
ReproFlags fuzzReproFlags(BugInjection inject);

/** Campaign outcome. */
struct FuzzSummary : CampaignSummary
{
    std::uint64_t accesses = 0; ///< audited lookups, all cases
};

/**
 * Run the scheme-fuzzer campaign: every case with @p inject in
 * place of the real scheme, failing traces shrunk by
 * minimizeTrace() unless @p minimize is false.
 */
FuzzSummary runFuzz(const CampaignOptions &opt,
                    BugInjection inject = BugInjection::None,
                    bool minimize = true);

} // namespace check
} // namespace assoc

#endif // ASSOC_CHECK_FUZZ_H
