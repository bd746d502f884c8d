/**
 * @file
 * The one seeded-campaign driver behind every fuzz_diff campaign.
 *
 * A campaign is a sequence of cases, each a pure function of
 * (master seed, case index). runCampaign() owns everything the
 * campaigns have in common: the case range (all of
 * [0, iterations), or the single `--config` case), the stop after
 * max_failures failing cases, the order-sensitive digest chain over
 * the per-case digests, periodic progress lines, the failure report
 * and its repro line. A campaign contributes only its per-case body
 * (sample the case, run it, return a ViolationLog and a digest) and
 * the fuzz_diff flags that replay it.
 *
 * Repro lines have the shape
 *
 *   fuzz_diff [mode flag] --seed=S --config=I [case flags]
 *
 * where the mode flag selects the campaign (`--threads=N`,
 * `--svc-chaos`, `--inject-faults`, or nothing for the scheme
 * fuzzer) and the case flags are every other non-default flag that
 * changes how a case is sampled or judged (`--threads=N` for the
 * chaos campaign, `--inject=BUG`, `--job-timeout=Tns`). Running the
 * printed line therefore rebuilds exactly the failing case.
 */

#ifndef ASSOC_CHECK_CAMPAIGN_H
#define ASSOC_CHECK_CAMPAIGN_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.h"

namespace assoc {
namespace check {

/** The parameters every campaign shares (fuzz_diff's common flags). */
struct CampaignOptions
{
    std::uint64_t seed = 1;
    std::uint64_t iterations = 200;
    /** Run only this case index (`--config` replay). */
    std::optional<std::uint64_t> only_case;
    /** Stop after this many failing cases. */
    unsigned max_failures = 1;
    /** Progress/failure stream (nullptr = silent). */
    std::ostream *log = nullptr;
};

/** The fuzz_diff flags that replay one campaign's cases. */
struct ReproFlags
{
    /** Selects the campaign; printed before `--seed` ("" = the
     *  scheme fuzzer). */
    std::string mode;
    /** Non-default flags the cases are sampled or judged with;
     *  printed after `--config`. */
    std::vector<std::string> args;
};

/** The one-line command that replays case @p index. */
std::string reproCommand(const ReproFlags &flags, std::uint64_t seed,
                         std::uint64_t index);

/** One failing case, as reported. */
struct CaseFailure
{
    std::uint64_t index = 0;
    std::uint64_t case_seed = 0;
    std::string description;
    /** The first violations (ViolationLog's message cap). */
    std::vector<std::string> messages;
    /** The printed fuzz_diff command that replays this case. */
    std::string repro;
};

/** What every campaign reports; campaigns add their own totals. */
struct CampaignSummary
{
    std::uint64_t cases_run = 0;
    /** Order-sensitive digest of all case digests (determinism
     *  tests compare these). */
    std::uint64_t digest = 0;
    std::vector<CaseFailure> failures;

    bool ok() const { return failures.empty(); }
};

/** What one case body produced. */
struct CaseOutcome
{
    std::uint64_t case_seed = 0;
    /** One-line case description for failure reports. */
    std::string description;
    ViolationLog log;
    std::uint64_t digest = 0;
    /** Extra report lines for a failing case (e.g. a minimized
     *  trace), printed before the repro line. */
    std::vector<std::string> detail;
};

/** How one campaign plugs into runCampaign(). */
struct Campaign
{
    /** Names the campaign in progress and FAIL lines. */
    std::string name;
    ReproFlags repro;
    /** Print a progress line every this many cases (0 = never). */
    std::uint64_t progress_every = 0;
    /** The campaign's running totals for progress lines. */
    std::function<std::string()> progress;
    /** Sample and run case @p index. */
    std::function<CaseOutcome(std::uint64_t index)> run;
};

/** Run @p campaign's cases as @p opt says, accumulating into
 *  @p out (whose campaign-specific totals the bodies update). */
void runCampaign(const CampaignOptions &opt, const Campaign &campaign,
                 CampaignSummary &out);

} // namespace check
} // namespace assoc

#endif // ASSOC_CHECK_CAMPAIGN_H
