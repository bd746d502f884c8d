/**
 * @file
 * One place that knows the on-disk trace formats (din text, framed
 * ftr): it opens a trace file of either — by extension when it is
 * telling, by magic-number sniff when it is not — optionally with IO
 * faults injected underneath for robustness testing, and writes one
 * in the format its path names.
 */

#ifndef ASSOC_TRACE_TRACE_FILE_H
#define ASSOC_TRACE_TRACE_FILE_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/ftr_writer.h"
#include "trace/trace_source.h"
#include "util/error.h"
#include "util/io_fault.h"

namespace assoc {
namespace trace {

/** The trace file formats this repo reads and writes. */
enum class TraceFormat { Din, Ftr };

/** Short lowercase name ("din", "ftr"). */
const char *traceFormatName(TraceFormat f);

/**
 * Decide @p path's format: a .din/.ftr extension wins; anything else
 * is sniffed by magic number (unreadable or unrecognized files
 * default to din, whose parser reports precise line errors).
 */
TraceFormat detectTraceFormat(const std::string &path);

/**
 * Open @p path as a TraceSource of the detected format. Never null;
 * open failures are carried in the source's error() as usual.
 */
std::unique_ptr<TraceSource>
openTraceFile(const std::string &path,
              ErrorPolicy policy = ErrorPolicy());

/**
 * Same, but the reader sees @p plan's injected IO faults (short
 * read / hard error at a byte offset) — the fault campaigns' view
 * of a dying disk.
 */
std::unique_ptr<TraceSource>
openTraceFileWithFaults(const std::string &path, ErrorPolicy policy,
                        const IoFaultPlan &plan);

/**
 * Write every reference of @p src (from the top) to @p path in the
 * format detectTraceFormat() picks for it; @p opt sizes the frames
 * of an ftr file. Returns the references written; a writer failure
 * is thrown as a structured Error.
 */
std::uint64_t writeTraceFile(TraceSource &src, const std::string &path,
                             FtrWriter::Options opt = {});

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_TRACE_FILE_H
