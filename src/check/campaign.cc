#include "check/campaign.h"

#include <ostream>

#include "util/digest.h"

namespace assoc {
namespace check {

std::string
reproCommand(const ReproFlags &flags, std::uint64_t seed,
             std::uint64_t index)
{
    std::string cmd = "fuzz_diff ";
    if (!flags.mode.empty())
        cmd += flags.mode + " ";
    cmd += "--seed=" + std::to_string(seed) +
           " --config=" + std::to_string(index);
    for (const std::string &arg : flags.args)
        cmd += " " + arg;
    return cmd;
}

void
runCampaign(const CampaignOptions &opt, const Campaign &campaign,
            CampaignSummary &out)
{
    std::uint64_t h = kFnvInit;
    const std::uint64_t begin = opt.only_case.value_or(0);
    const std::uint64_t end =
        opt.only_case ? *opt.only_case + 1 : opt.iterations;

    for (std::uint64_t i = begin; i < end; ++i) {
        const CaseOutcome r = campaign.run(i);
        ++out.cases_run;
        fnvMix(h, r.digest);

        if (opt.log && !opt.only_case && campaign.progress_every &&
            (i + 1) % campaign.progress_every == 0)
            *opt.log << campaign.name << ": " << (i + 1) << "/"
                     << opt.iterations << " cases, "
                     << campaign.progress() << "\n";

        if (r.log.ok())
            continue;

        CaseFailure f;
        f.index = i;
        f.case_seed = r.case_seed;
        f.description = r.description;
        f.messages = r.log.messages();
        f.repro = reproCommand(campaign.repro, opt.seed, i);
        if (opt.log) {
            std::ostream &os = *opt.log;
            os << "FAIL " << campaign.name << " case " << i << ": "
               << f.description << "\n";
            for (const std::string &m : f.messages)
                os << "  violation: " << m << "\n";
            if (r.log.count() > f.messages.size())
                os << "  ... " << r.log.count()
                   << " violations total\n";
            for (const std::string &d : r.detail)
                os << "  " << d << "\n";
            os << "  repro: " << f.repro << "\n";
        }
        out.failures.push_back(std::move(f));
        if (out.failures.size() >= opt.max_failures)
            break;
    }
    out.digest = h;
}

} // namespace check
} // namespace assoc
