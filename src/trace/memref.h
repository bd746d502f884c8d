/**
 * @file
 * The memory-reference record that flows from a trace source into
 * the cache hierarchy.
 */

#ifndef ASSOC_TRACE_MEMREF_H
#define ASSOC_TRACE_MEMREF_H

#include <cstdint>
#include <string>

namespace assoc {
namespace trace {

/** 32-bit virtual byte address (the paper's traces are VAX). */
using Addr = std::uint32_t;

/** Kind of processor reference. */
enum class RefType : std::uint8_t {
    Read = 0,     ///< data read
    Write = 1,    ///< data write
    Ifetch = 2,   ///< instruction fetch
    /**
     * Flush marker: invalidate all cache levels. The ATUM-like
     * trace inserts one between its 23 concatenated sub-traces so
     * each starts from a cold cache, as in the paper (Table 3).
     */
    Flush = 3,
};

/** One traced reference. */
struct MemRef
{
    Addr addr = 0;          ///< virtual byte address
    RefType type = RefType::Read;
    std::uint8_t pid = 0;   ///< process id (0 = OS/kernel)

    bool isFlush() const { return type == RefType::Flush; }
    bool isWrite() const { return type == RefType::Write; }
    bool
    isInstruction() const
    {
        return type == RefType::Ifetch;
    }

    /** A flush marker record. */
    static MemRef
    flush()
    {
        return MemRef{0, RefType::Flush, 0};
    }

    bool
    operator==(const MemRef &o) const
    {
        return addr == o.addr && type == o.type && pid == o.pid;
    }
};

// Shared trace buffers are priced and budgeted at 8 bytes a record
// (docs/ROBUSTNESS.md, "Memory budgets").
static_assert(sizeof(MemRef) == 8, "MemRef must stay 8 bytes");

/** Human-readable name of a reference type. */
const char *refTypeName(RefType t);

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_MEMREF_H
