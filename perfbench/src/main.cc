/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--digests FILE] [--work-dir DIR]
 *
 * Runs one workload for S seconds, checks its outputs, and prints
 * every metric of the mode (end-to-end untraced, per-layer traced)
 * by name with its unit; the last stdout line is the one-line JSON
 * result. Exit status: 0 when every check passed, 1 when a check
 * failed or the run died, 2 on a usage error.
 */

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "util/error.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const std::set<std::string> kSweeps = {"table4_sweep", "scheme_zoo_ftr"};
const std::set<std::string> kSvc = {"svc_read_mostly",
                                    "svc_write_overload"};

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] "
                 "[--digests FILE] [--work-dir DIR]\n";
    return 2;
}

bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (!parseUint(value, args.seed))
                return usage("bad --seed " + value);
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUint(value, n) || n == 0 || n > 3600)
                return usage("bad --seconds " + value);
            args.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("bad --trace " + value);
            args.trace = value == "1";
            have_trace = true;
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny")
                return usage("bad --size " + value);
            args.size = value == "full" ? Size::Full : Size::Tiny;
        } else if (flag == "--digests") {
            args.digests_path = value;
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else {
            return usage("unknown flag " + flag);
        }
    }
    if (!kSweeps.count(args.workload) && !kSvc.count(args.workload))
        return usage("unknown workload '" + args.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Report report;
    try {
        if (kSweeps.count(args.workload))
            runSweepWorkload(args, report);
        else
            runSvcWorkload(args, report);
    } catch (const assoc::ErrorException &e) {
        std::cerr << "perfbench: " << e.error().text() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    report.print(args);
    return report.correct() && report.failed == 0 ? 0 : 1;
}
