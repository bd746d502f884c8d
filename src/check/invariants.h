/**
 * @file
 * Machine-checked invariants for every lookup scheme: the paper's
 * central claim is that Naive, MRU and partial-compare lookups are
 * probe-cheaper but *outcome-identical* to the traditional a-way
 * lookup. The checkers here turn that claim (plus the supporting
 * structural invariants) into assertions callable from any
 * simulation:
 *
 *  - per-lookup probe bounds (1 <= probes <= a for Naive, a + 1 for
 *    MRU, s..s+a for Partial) from the Section 2 cost model;
 *  - exact reference re-execution: an independent re-implementation
 *    of each scheme's scan is compared probe-for-probe against the
 *    production strategy (differential redundancy);
 *  - the Partial step-1 superset property: the partially-matching
 *    candidate set must contain every way whose sliced tag equals
 *    the incoming one (in particular, the true hit way);
 *  - LRU-stack integrity: the per-set recency order is a
 *    permutation of the ways with invalid frames at the tail;
 *  - GF(2) transform invertibility, linearity and tag-width masking;
 *  - multi-level inclusion for hierarchies that enforce it.
 *
 * The InvariantAuditor packages the per-access checks behind the
 * core::LookupAuditor hook, so attaching it to a ProbeMeter (or via
 * sim::RunSpec::auditor) validates a whole run as it streams.
 */

#ifndef ASSOC_CHECK_INVARIANTS_H
#define ASSOC_CHECK_INVARIANTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/lookup.h"
#include "core/partial_lookup.h"
#include "core/probe_meter.h"
#include "core/transform.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "util/rng.h"

namespace assoc {
namespace check {

/**
 * Collected invariant violations. Messages are capped (the count is
 * not) so a systematically broken scheme cannot exhaust memory.
 */
class ViolationLog
{
  public:
    explicit ViolationLog(std::size_t max_messages = 16)
        : max_messages_(max_messages)
    {}

    /** Record one violation. */
    void add(const std::string &message);

    /** Record @p message as a violation unless @p ok holds. */
    void
    require(bool ok, const std::string &message)
    {
        if (!ok)
            add(message);
    }

    /** Total violations recorded (including dropped messages). */
    std::uint64_t count() const { return count_; }

    /** True when no violation was recorded. */
    bool ok() const { return count_ == 0; }

    /** The first max_messages violation messages. */
    const std::vector<std::string> &messages() const
    {
        return messages_;
    }

    void clear();

  private:
    std::size_t max_messages_;
    std::uint64_t count_ = 0;
    std::vector<std::string> messages_;
};

/** Inclusive per-lookup probe bounds of one scheme (Section 2). */
struct ProbeBounds
{
    unsigned hit_min = 1;
    unsigned hit_max = 0;
    unsigned miss_min = 1;
    unsigned miss_max = 0;
};

/**
 * Bounds for @p strategy at associativity @p a, derived from the
 * scheme's Section 2 cost model (recognized by type: Traditional,
 * Naive, MRU, Partial). Unrecognized strategies get the loose
 * universal envelope [1, 1 + 2a] (list read + step-1 probes + full
 * compares can never exceed it).
 */
ProbeBounds probeBoundsFor(const core::LookupStrategy &strategy,
                           unsigned a);

/**
 * Independent reference re-execution of @p strategy on @p in for
 * the recognized scheme types: a from-the-paper re-implementation
 * of the scan whose verdict, way and probe count the production
 * strategy must reproduce exactly.
 * @return false when the strategy type is not recognized (@p out is
 *         untouched); true with @p out filled otherwise.
 */
bool referenceLookup(const core::LookupStrategy &strategy,
                     const core::LookupInput &in,
                     core::LookupResult &out);

/**
 * The Partial step-1 candidate set of @p in under @p cfg as a way
 * bitmask: way w is a candidate when its assigned k-bit collection
 * field matches the incoming tag's.
 */
std::uint64_t partialCandidateMask(const core::PartialConfig &cfg,
                                   const core::LookupInput &in);

/**
 * Check that set @p set of @p cache has a sound recency order: a
 * permutation of [0, assoc) with every invalid frame in a suffix.
 * @return true when sound; violations are logged otherwise.
 */
bool checkMruOrderIntegrity(const mem::WriteBackCache &cache,
                            std::uint32_t set, ViolationLog &log);

/**
 * Same soundness check for the fill-age (FIFO) order of @p set:
 * a permutation of [0, assoc) whose invalid frames form a suffix.
 * Invalidation demotes the freed frame in *both* orders, so the
 * suffix invariant must hold for each (victimWay() under the Fifo
 * policy reads the fill-age tail directly).
 */
bool checkFifoOrderIntegrity(const mem::WriteBackCache &cache,
                             std::uint32_t set, ViolationLog &log);

/** Both per-set order checks (recency and fill-age) for @p set. */
bool checkRecencyOrders(const mem::WriteBackCache &cache,
                        std::uint32_t set, ViolationLog &log);

/** checkMruOrderIntegrity over every set of @p cache. */
bool checkAllMruOrders(const mem::WriteBackCache &cache,
                       ViolationLog &log);

/** checkRecencyOrders (MRU + fill-age) over every set. */
bool checkAllRecencyOrders(const mem::WriteBackCache &cache,
                           ViolationLog &log);

/**
 * Check GF(2) soundness of @p xf on @p samples random t-bit tags
 * per slot: invert(apply(x)) == x, apply stays within the tag
 * mask, apply(0) == 0 and apply(x ^ y) == apply(x) ^ apply(y)
 * (linearity over GF(2), which makes invertibility a matrix
 * property as the paper argues).
 */
bool checkTransformInvertible(const core::TagTransform &xf,
                              Pcg32 &rng, unsigned samples,
                              ViolationLog &log);

/**
 * Check multi-level inclusion: every valid level-one line's block
 * is present in the level two. Only meaningful for hierarchies
 * configured with enforce_inclusion, a write-back level one and
 * allocate_on_wb_miss (otherwise inclusion legitimately lapses).
 */
bool checkInclusion(const mem::TwoLevelHierarchy &hier,
                    ViolationLog &log);

/**
 * Per-access invariant checker behind the core::LookupAuditor
 * hook. Attach one instance to any number of ProbeMeters; every
 * metered lookup is validated against:
 *
 *  1. the scheme's probe bounds (probeBoundsFor);
 *  2. the reference re-execution (referenceLookup), exact match of
 *     hit/way/probes for recognized scheme types;
 *  3. the simulator's ground truth: with full-width tags the
 *     verdict and way must match exactly; with truncated tags a
 *     divergent hit must be justified by sliced-tag equality (a
 *     genuine alias) and a true hit may never be missed;
 *  4. the Partial step-1 superset property;
 *  5. memo consistency: a WayMemo memo hit skips every probe and
 *     names exactly the way the underlying scheme's reference scan
 *     finds, and a memo miss reproduces that reference verbatim —
 *     memoization changes costs, never outcomes;
 *  6. LRU-stack integrity of the accessed set.
 */
class InvariantAuditor : public core::LookupAuditor
{
  public:
    /** @param log sink for violations (not owned). */
    explicit InvariantAuditor(ViolationLog *log);

    void audit(const core::ProbeMeter &meter,
               const mem::L2AccessView &view,
               const core::LookupInput &in,
               const core::LookupResult &res) override;

    /** Lookups audited so far. */
    std::uint64_t audited() const { return audited_; }

  private:
    ViolationLog *log_;
    std::uint64_t audited_ = 0;
};

} // namespace check
} // namespace assoc

#endif // ASSOC_CHECK_INVARIANTS_H
