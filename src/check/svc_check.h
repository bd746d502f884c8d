/**
 * @file
 * Correctness checks for the concurrent cache service (src/svc).
 *
 * Two machine-checked claims:
 *
 *  1. Per-set serializability. Every svc operation carries the
 *     stripe version it observed (read-only ops) or produced
 *     (mutating ops advance their stripe's seqlock by one). Sorting
 *     the merged per-session histories by (version, mutation-first)
 *     within each stripe therefore reconstructs the concurrent
 *     execution's per-set total order; replaying that order against
 *     a fresh single-threaded WriteBackCache must reproduce every
 *     recorded hit/way/probe-count/eviction exactly, mutation
 *     versions must be duplicate-free and gap-free (a duplicate
 *     means two writers were inside one critical section), and the
 *     replayed cache must end bit-identical to the shared engine.
 *
 *  2. Deterministic stats merging. Replaying one op stream
 *     partitioned disjoint-by-set over N threads must merge to
 *     TenantStats outcome totals bit-for-bit equal to a
 *     single-thread run of the same stream — per-set state never
 *     crosses a partition boundary, and every shard merge is an
 *     exact integer/small-double sum.
 *
 * The fuzzer samples (geometry, policy, stripe cap, op mix, thread
 * count) cases as pure functions of (seed, index) and runs both
 * phases per case; failures print one-line
 * `fuzz_diff --threads=T --seed=S --config=I` repro commands, T
 * being the campaign's own `--threads` value (0 = sampled per case).
 */

#ifndef ASSOC_CHECK_SVC_CHECK_H
#define ASSOC_CHECK_SVC_CHECK_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/campaign.h"
#include "check/invariants.h"
#include "svc/service.h"

namespace assoc {
namespace check {

/** One scripted service operation (pre-generated op streams). */
struct SvcOpSpec
{
    svc::OpKind kind = svc::OpKind::Access;
    mem::BlockAddr block = 0;
    bool is_write = false;
};

/** One sampled svc fuzz case: a pure function of its case seed. */
struct SvcFuzzCase
{
    std::uint64_t case_seed = 0;
    mem::CacheGeometry geom{1024, 16, 2};
    svc::SvcConfig cfg;
    unsigned threads = 2;
    std::uint64_t ops_per_thread = 1000;
    /** Distinct block addresses the streams draw from (small =
     *  contended). */
    std::uint32_t block_space = 64;

    /** One-line description for failure reports. */
    std::string describe() const;
};

/**
 * Sample the case implied by (master seed, case index).
 * @param threads_override force the thread count (0 = sample it);
 *        the `--threads` flag threads through here.
 */
SvcFuzzCase sampleSvcCase(std::uint64_t seed, std::uint64_t index,
                          unsigned threads_override = 0);

/** Thread @p thread's deterministic op stream for case @p c. */
std::vector<SvcOpSpec> svcOpStream(const SvcFuzzCase &c,
                                   unsigned thread);

/**
 * Serializability check: order @p events per stripe by version and
 * replay them against a fresh reference cache (claim 1 above).
 * @param stripes   stripe count of the engine that ran (sets map to
 *                  stripes by low bits).
 * @param final_state when non-null, the engine's quiesced cache to
 *                  compare against the replayed reference state.
 */
void checkSvcHistory(const mem::CacheGeometry &geom,
                     mem::ReplPolicy policy, unsigned stripes,
                     const std::vector<svc::HistoryEvent> &events,
                     const mem::WriteBackCache *final_state,
                     ViolationLog &log);

/** Stats-merge invariant: @p merged (an N-thread partitioned run's
 *  merged shards) must equal @p reference (the single-thread run)
 *  bit-for-bit on every outcome counter. */
void checkStatsMerge(const svc::TenantStats &merged,
                     const svc::TenantStats &reference,
                     ViolationLog &log);

/**
 * Admission conservation invariant: every request that entered the
 * service layer ended in exactly one disposition, so
 * admitted == completed + shed + failed — on each tenant's shard
 * and on any merge of shards. @p who labels the shard in
 * violations.
 */
void checkAdmissionConservation(const svc::AdmissionStats &a,
                                const std::string &who,
                                ViolationLog &log);

/** Create a service over @p geom / @p cfg and open @p sessions
 *  sessions on it, appended to @p out. Throws ErrorException when
 *  either step fails. */
std::unique_ptr<svc::CacheService>
openService(const mem::CacheGeometry &geom, const svc::SvcConfig &cfg,
            unsigned sessions, std::vector<svc::Session *> &out);

/**
 * Run @p body(t) for every t in [0, @p threads), one thread each,
 * and join them. A worker's error — the non-empty string its body
 * returns, or an exception it throws — is logged as
 * "<who> <t>: <error>".
 */
void runWorkers(unsigned threads,
                const std::function<std::string(unsigned)> &body,
                const std::string &who, ViolationLog &log);

/** What running one case produced. */
struct SvcCaseResult
{
    ViolationLog log;
    std::uint64_t ops = 0;    ///< operations applied, both phases
    std::uint64_t digest = 0; ///< FNV-1a over the serial outcomes
};

/** Run one case: the contended history phase, then the partitioned
 *  determinism phase. Exceptions are caught and logged. */
SvcCaseResult runSvcCase(const SvcFuzzCase &c);

/** The fuzz_diff flags that replay a case of the campaign run with
 *  `--threads=@p threads` (0 = each case samples its own count). */
ReproFlags svcReproFlags(unsigned threads);

/** Campaign outcome. */
struct SvcFuzzSummary : CampaignSummary
{
    std::uint64_t ops = 0; ///< operations applied, all cases
};

/** Run the service fuzz campaign with @p threads client threads per
 *  case (0 = sample 2-4 per case). */
SvcFuzzSummary runSvcFuzz(const CampaignOptions &opt,
                          unsigned threads = 0);

} // namespace check
} // namespace assoc

#endif // ASSOC_CHECK_SVC_CHECK_H
