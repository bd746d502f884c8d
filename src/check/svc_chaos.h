/**
 * @file
 * The svc chaos campaign: overload, shedding and service faults,
 * machine-checked.
 *
 * Each chaos case builds a CacheService with admission control
 * enabled, arms one service-layer fault from the seeded FaultPlan
 * (exec/fault.h) —
 *
 *   lock-holder-stall  a stripe-lock holder is "preempted"
 *                      (busy-spins inside the critical section),
 *   tenant-flood       one tenant's request stream is multiplied,
 *   budget-squeeze     the victim's quota bucket is drained to
 *                      zero mid-stream,
 *   deadline-storm     the victim issues a burst of pre-expired
 *                      request deadlines,
 *
 * — then drives concurrent per-tenant request() streams through
 * the full overload path and asserts, per case:
 *
 *  1. Conservation: admitted == completed + shed + failed, on
 *     every tenant's shard and on the merged totals.
 *  2. Serializability under shedding: the ops that *did* execute
 *     replay exactly against the PR-6 per-set checker
 *     (checkSvcHistory) — a shed or stalled request never tears a
 *     critical section.
 *  3. Determinism: the case runs twice, and the
 *     schedule-independent counters (admitted, shed_quota,
 *     shed_writes, degraded — plus failed_timeout under
 *     deadline-storm, whose deadlines are pre-expired and hence
 *     clock-free) must digest bit-for-bit identical.
 *  4. No unexpected errors: request() may fail only with the
 *     structured Overloaded / Timeout / Cancelled shapes.
 *
 * Cases are pure functions of (seed, index); failures print
 * one-line `fuzz_diff --svc-chaos --seed=S --config=I` repros,
 * with `--threads=N` appended when the campaign pinned it.
 */

#ifndef ASSOC_CHECK_SVC_CHAOS_H
#define ASSOC_CHECK_SVC_CHAOS_H

#include <cstdint>
#include <string>
#include <vector>

#include "check/svc_check.h"
#include "exec/fault.h"

namespace assoc {
namespace check {

/** One sampled chaos case: a pure function of (seed, index). */
struct SvcChaosCase
{
    std::uint64_t case_seed = 0;
    mem::CacheGeometry geom{1024, 16, 2};
    svc::SvcConfig cfg; ///< admission enabled, history recorded
    unsigned threads = 2;
    std::uint64_t ops_per_thread = 400;
    std::uint32_t block_space = 64;
    exec::FaultPlan fault; ///< svc_* fields armed

    /** One-line description for failure reports. */
    std::string describe() const;
};

/** Sample the case implied by (master seed, case index).
 *  @param threads_override force the thread count (0 = sample). */
SvcChaosCase sampleSvcChaosCase(std::uint64_t seed,
                                std::uint64_t index,
                                unsigned threads_override = 0);

/** What one chaos execution produced. */
struct SvcChaosRun
{
    ViolationLog log;
    std::uint64_t ops = 0; ///< requests issued
    /** FNV digest of the schedule-independent admission counters,
     *  per tenant in open order. */
    std::uint64_t determinism_digest = 0;
    svc::AdmissionStats totals; ///< merged over tenants
};

/** Execute case @p c once, checking conservation, serializability
 *  and error shapes. Exceptions are caught and logged. */
SvcChaosRun runSvcChaosCase(const SvcChaosCase &c);

/** The fuzz_diff flags that replay a case of the campaign run with
 *  @p threads client threads per case (0 = sampled per case). */
ReproFlags svcChaosReproFlags(unsigned threads);

/** Campaign outcome. */
struct SvcChaosSummary : CampaignSummary
{
    std::uint64_t ops = 0; ///< requests issued, all cases and runs
    svc::AdmissionStats totals; ///< merged over all first runs
};

/**
 * Run the chaos campaign with @p threads client threads per case
 * (0 = sample per case): every case executes twice (fresh service
 * each time) and the two runs' determinism digests must match
 * exactly, on top of each run's own invariants.
 */
SvcChaosSummary runSvcChaos(const CampaignOptions &opt,
                            unsigned threads = 0);

} // namespace check
} // namespace assoc

#endif // ASSOC_CHECK_SVC_CHAOS_H
