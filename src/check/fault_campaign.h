/**
 * @file
 * Deterministic fault-injection campaign for the robustness layer.
 *
 * Where src/check/fuzz.* fuzzes the lookup schemes themselves, this
 * campaign fuzzes the *failure paths* around them: corrupted and
 * truncated trace files under every ErrorPolicy (including framed
 * ftr traces — bit flips, mid-file truncation, torn-off footers),
 * device faults injected at the stream layer (short reads, EIO),
 * faults thrown from inside a metered lookup, transient job
 * failures that must be retried, cancellation mid-sweep followed by
 * a journal resume, and
 * the runaway-work kinds — a wedged job the watchdog must cut loose
 * (hang), a slow-but-progressing job that must NOT be killed (slow),
 * and a job ballooning past its memory budget (oom). Each case
 * asserts the documented recovery contract — readers never crash and
 * report structured Data/Io errors, skip caps hold, failed /
 * timed-out / over-budget jobs are isolated with every surviving
 * slot bit-identical to the serial run, and a resumed sweep
 * reproduces the uninterrupted result exactly.
 *
 * Everything is a pure function of (master seed, case index); every
 * failing case prints a one-line
 * `fuzz_diff --inject-faults --seed=... --config=...` repro
 * (check/campaign.h).
 */

#ifndef ASSOC_CHECK_FAULT_CAMPAIGN_H
#define ASSOC_CHECK_FAULT_CAMPAIGN_H

#include <cstdint>

#include "check/campaign.h"

namespace assoc {
namespace check {

/** The fuzz_diff flags that replay a fault case run with the
 *  @p job_timeout_ns watchdog deadline (0 = the built-in one). */
ReproFlags faultReproFlags(std::uint64_t job_timeout_ns);

/** Campaign outcome. Each failure's description names the fault
 *  family (see the campaign source). */
struct FaultCampaignSummary : CampaignSummary
{
    std::uint64_t faults_injected = 0; ///< faults actually delivered
};

/**
 * Run the fault-injection campaign. Scratch trace and journal files
 * live in a per-process directory under the system temp directory,
 * removed per case. @p job_timeout_ns is the per-job watchdog
 * deadline for the hang cases (0 = a built-in 50ms); repro lines
 * carry it when set, so a watchdog kill replays with the same
 * timeout.
 */
FaultCampaignSummary runFaultCampaign(const CampaignOptions &opt,
                                      std::uint64_t job_timeout_ns = 0);

} // namespace check
} // namespace assoc

#endif // ASSOC_CHECK_FAULT_CAMPAIGN_H
