/**
 * @file
 * The benchmark's workloads. Each entry point sets up its inputs
 * from the seed, measures for the requested seconds through the
 * library's public entry points, checks the outputs, and fills the
 * Report (end-to-end metrics untraced, per-layer metrics traced).
 * See perfbench/README.md for why each workload exists.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "support.h"

namespace perfbench {

/** table4_sweep and scheme_zoo_ftr: exec::runSweepChecked with a
 *  TraceFactory. */
void runSweepWorkload(const Args &args, Report &report);

/** svc_read_mostly and svc_write_overload: svc::Session::request
 *  from closed-loop client threads. */
void runSvcWorkload(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
