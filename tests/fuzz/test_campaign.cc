/**
 * @file
 * Tests of the shared campaign driver (check/campaign.h): the case
 * range, the failure stop, the digest chain and the report, and —
 * for each of the four fuzz_diff campaigns — that the printed repro
 * line, parsed back the way fuzz_diff parses it, rebuilds the very
 * case that failed.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "check/campaign.h"
#include "check/fault_campaign.h"
#include "check/fuzz.h"
#include "check/svc_chaos.h"
#include "check/svc_check.h"
#include "util/cancel.h"
#include "util/digest.h"

namespace assoc {
namespace check {
namespace {

using Flags = std::map<std::string, std::string>;

/** Split a printed `fuzz_diff --a=1 --b ...` line into its flags
 *  (switches map to ""). */
Flags
parseRepro(const std::string &line)
{
    std::istringstream is(line);
    std::string tok;
    is >> tok;
    EXPECT_EQ(tok, "fuzz_diff") << line;
    Flags flags;
    while (is >> tok) {
        EXPECT_EQ(tok.rfind("--", 0), 0u) << line;
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            flags[tok.substr(2)] = "";
        else
            flags[tok.substr(2, eq - 2)] = tok.substr(eq + 1);
    }
    return flags;
}

std::uint64_t
number(const Flags &flags, const std::string &name)
{
    EXPECT_TRUE(flags.count(name)) << "--" << name << " missing";
    return flags.count(name) ? std::stoull(flags.at(name)) : 0;
}

/** fuzz_diff's dispatch: which campaign a flag set selects. */
std::string
campaignOf(const Flags &flags)
{
    if (flags.count("svc-chaos"))
        return "chaos";
    if (flags.count("threads"))
        return "svc";
    if (flags.count("inject-faults"))
        return "fault";
    return "fuzz";
}

TEST(ReproReplay, FuzzLinesReplayTheInjectedFailure)
{
    CampaignOptions opt;
    opt.seed = 3;
    opt.iterations = 200;
    opt.max_failures = 2;
    for (BugInjection bug :
         {BugInjection::NaiveSkip, BugInjection::MruUndercount,
          BugInjection::PartialFilter, BugInjection::MemoStale}) {
        const FuzzSummary sum = runFuzz(opt, bug, /*minimize=*/false);
        ASSERT_FALSE(sum.ok()) << bugInjectionName(bug);
        for (const CaseFailure &f : sum.failures) {
            const Flags flags = parseRepro(f.repro);
            EXPECT_EQ(campaignOf(flags), "fuzz") << f.repro;
            const FuzzCase c = sampleCase(number(flags, "seed"),
                                          number(flags, "config"));
            EXPECT_EQ(c.describe(), f.description) << f.repro;
            const BugInjection replayed = bugInjectionFromString(
                flags.count("inject") ? flags.at("inject") : "none");
            EXPECT_FALSE(runCase(c, replayed).log.ok()) << f.repro;
        }
    }
}

TEST(ReproReplay, SvcLinesRebuildTheFailingCase)
{
    for (unsigned threads : {0u, 3u}) {
        for (std::uint64_t i = 0; i < 20; ++i) {
            const std::string line =
                reproCommand(svcReproFlags(threads), 1, i);
            const Flags flags = parseRepro(line);
            EXPECT_EQ(campaignOf(flags), "svc") << line;
            const SvcFuzzCase replayed = sampleSvcCase(
                number(flags, "seed"), number(flags, "config"),
                static_cast<unsigned>(number(flags, "threads")));
            EXPECT_EQ(replayed.describe(),
                      sampleSvcCase(1, i, threads).describe())
                << line;
        }
    }
}

TEST(ReproReplay, ChaosLinesRebuildTheFailingCase)
{
    for (unsigned threads : {0u, 3u}) {
        for (std::uint64_t i = 0; i < 20; ++i) {
            const std::string line =
                reproCommand(svcChaosReproFlags(threads), 1, i);
            const Flags flags = parseRepro(line);
            EXPECT_EQ(campaignOf(flags), "chaos") << line;
            const unsigned replayed_threads =
                flags.count("threads")
                    ? static_cast<unsigned>(number(flags, "threads"))
                    : 0;
            const SvcChaosCase replayed = sampleSvcChaosCase(
                number(flags, "seed"), number(flags, "config"),
                replayed_threads);
            EXPECT_EQ(replayed.describe(),
                      sampleSvcChaosCase(1, i, threads).describe())
                << line;
        }
    }
}

TEST(ReproReplay, FaultLinesCarryTheWatchdogDeadline)
{
    for (std::uint64_t ns : {0ull, 50000000ull, 7000000000ull}) {
        const std::string line = reproCommand(faultReproFlags(ns), 5, 8);
        const Flags flags = parseRepro(line);
        EXPECT_EQ(campaignOf(flags), "fault") << line;
        EXPECT_EQ(number(flags, "seed"), 5u);
        EXPECT_EQ(number(flags, "config"), 8u);
        if (ns == 0) {
            EXPECT_FALSE(flags.count("job-timeout")) << line;
        } else {
            ASSERT_TRUE(flags.count("job-timeout")) << line;
            Expected<std::uint64_t> parsed =
                parseDuration(flags.at("job-timeout"));
            ASSERT_TRUE(parsed.ok()) << line;
            EXPECT_EQ(parsed.value(), ns);
        }
    }
}

TEST(ReproReplay, UnpinnedLinesAreUnchanged)
{
    EXPECT_EQ(reproCommand(fuzzReproFlags(BugInjection::None), 1, 9),
              "fuzz_diff --seed=1 --config=9");
    EXPECT_EQ(reproCommand(faultReproFlags(0), 3, 4),
              "fuzz_diff --inject-faults --seed=3 --config=4");
    EXPECT_EQ(reproCommand(faultReproFlags(50000000), 3, 4),
              "fuzz_diff --inject-faults --seed=3 --config=4 "
              "--job-timeout=50000000ns");
}

/** A campaign whose cases fail when index % 3 == 2. */
Campaign
everyThirdFails(std::uint64_t &ran)
{
    Campaign c;
    c.name = "toy";
    c.repro = {"--toy", {"--knob=2"}};
    c.progress_every = 4;
    c.progress = [&ran] { return std::to_string(ran) + " ran"; };
    c.run = [&ran](std::uint64_t index) {
        ++ran;
        CaseOutcome out;
        out.case_seed = 100 + index;
        out.description = "case#" + std::to_string(index);
        out.digest = index * 7;
        if (index % 3 == 2) {
            out.log.add("bad " + std::to_string(index));
            out.detail.push_back("detail line");
        }
        return out;
    };
    return c;
}

TEST(RunCampaign, StopsAtMaxFailuresAndPrintsTheRepro)
{
    std::uint64_t ran = 0;
    std::ostringstream log;
    CampaignOptions opt;
    opt.seed = 9;
    opt.iterations = 100;
    opt.max_failures = 2;
    opt.log = &log;
    CampaignSummary sum;
    runCampaign(opt, everyThirdFails(ran), sum);

    EXPECT_EQ(sum.cases_run, 6u); // cases 2 and 5 fail
    EXPECT_EQ(ran, 6u);
    ASSERT_EQ(sum.failures.size(), 2u);
    const CaseFailure &f = sum.failures[1];
    EXPECT_EQ(f.index, 5u);
    EXPECT_EQ(f.case_seed, 105u);
    EXPECT_EQ(f.description, "case#5");
    EXPECT_EQ(f.messages, std::vector<std::string>{"bad 5"});
    EXPECT_EQ(f.repro, "fuzz_diff --toy --seed=9 --config=5 --knob=2");
    EXPECT_EQ(log.str(), "FAIL toy case 2: case#2\n"
                         "  violation: bad 2\n"
                         "  detail line\n"
                         "  repro: fuzz_diff --toy --seed=9 "
                         "--config=2 --knob=2\n"
                         "toy: 4/100 cases, 4 ran\n"
                         "FAIL toy case 5: case#5\n"
                         "  violation: bad 5\n"
                         "  detail line\n"
                         "  repro: fuzz_diff --toy --seed=9 "
                         "--config=5 --knob=2\n");
}

TEST(RunCampaign, OnlyCaseRunsOneCaseWithoutProgress)
{
    std::uint64_t ran = 0;
    std::ostringstream log;
    CampaignOptions opt;
    opt.iterations = 100;
    opt.only_case = 3;
    opt.log = &log;
    CampaignSummary sum;
    runCampaign(opt, everyThirdFails(ran), sum);
    EXPECT_EQ(sum.cases_run, 1u);
    EXPECT_TRUE(sum.ok());
    EXPECT_EQ(log.str(), "");
}

TEST(RunCampaign, DigestChainsEveryCaseInOrder)
{
    std::uint64_t ran = 0;
    CampaignOptions opt;
    opt.iterations = 2;
    CampaignSummary sum;
    runCampaign(opt, everyThirdFails(ran), sum);

    std::uint64_t want = kFnvInit;
    fnvMix(want, 0);
    fnvMix(want, 7);
    EXPECT_EQ(sum.digest, want);

    std::uint64_t swapped = kFnvInit;
    fnvMix(swapped, 7);
    fnvMix(swapped, 0);
    EXPECT_NE(sum.digest, swapped);
}

} // namespace
} // namespace check
} // namespace assoc
