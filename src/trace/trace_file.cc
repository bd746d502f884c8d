#include "trace/trace_file.h"

#include <fstream>

#include "trace/din_io.h"
#include "trace/ftr_format.h"
#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"

namespace assoc {
namespace trace {

namespace {

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // namespace

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
      case TraceFormat::Din: return "din";
      case TraceFormat::Ftr: return "ftr";
    }
    return "?";
}

TraceFormat
detectTraceFormat(const std::string &path)
{
    if (hasSuffix(path, ".din"))
        return TraceFormat::Din;
    if (hasSuffix(path, ".ftr"))
        return TraceFormat::Ftr;
    std::ifstream in(path, std::ios::binary);
    char magic[4] = {0, 0, 0, 0};
    in.read(magic, sizeof(magic));
    if (in.gcount() == 4 && magic[0] == 'A' && magic[1] == 'S' &&
        magic[2] == 'F' && magic[3] == '1')
        return TraceFormat::Ftr;
    return TraceFormat::Din;
}

std::unique_ptr<TraceSource>
openTraceFile(const std::string &path, ErrorPolicy policy)
{
    if (detectTraceFormat(path) == TraceFormat::Ftr)
        return std::make_unique<FtrTraceSource>(path, policy);
    return std::make_unique<DinTraceSource>(path, policy);
}

std::unique_ptr<TraceSource>
openTraceFileWithFaults(const std::string &path, ErrorPolicy policy,
                        const IoFaultPlan &plan)
{
    if (!plan.armed())
        return openTraceFile(path, policy);
    if (detectTraceFormat(path) == TraceFormat::Ftr)
        return std::make_unique<FtrTraceSource>(
            openFaultyFile(path, plan), path, policy);
    return std::make_unique<DinTraceSource>(
        openFaultyFile(path, plan), path, policy);
}

std::uint64_t
writeTraceFile(TraceSource &src, const std::string &path,
               FtrWriter::Options opt)
{
    if (detectTraceFormat(path) == TraceFormat::Din)
        return writeDin(src, path);
    Expected<std::uint64_t> n = writeFtr(src, path, opt);
    if (!n.ok())
        throwError(n.error());
    return n.value();
}

} // namespace trace
} // namespace assoc
