/**
 * @file
 * Vectorized lookup kernels with runtime ISA dispatch.
 *
 * The paper's partial-compare step 1 — compare a k-bit field of all
 * a stored tags against the incoming tag — is naturally
 * data-parallel, and the SoA planes (contiguous tag / valid / order
 * arrays, see mem/cache.h) were laid out to feed exactly that. This
 * module packages the data-parallel inner loops of every lookup
 * scheme as *kernels*: small non-virtual functions over contiguous
 * planes that return per-way bitmasks (bit w = way w), plus the
 * plane decode helpers snapshotSet() is built from.
 *
 * Two kernel tables are dispatchable:
 *
 *  - avx2     — 8-way AVX2 intrinsics (x86-64; compiled behind a
 *               function target attribute, registered only when
 *               CPUID reports AVX2 at runtime).
 *  - portable — no intrinsics, works everywhere; each op takes
 *               whichever of the plain loop and the branch-free
 *               word-parallel body measured faster (docs/KERNELS.md).
 *
 * A third table, referenceKernels(), holds the branchy scalar loops
 * that call the TagTransform virtuals exactly like the original
 * strategy code. It *is* the old behavior: the oracle that the
 * self-check and the tests/kernels suite compare against. It is
 * never registered and never preferred.
 *
 * activeKernels() picks at first use: avx2 if registered and it
 * passes kernelSelfCheck() — a smoke-vector sweep (including
 * misaligned plane offsets) against the reference — else portable,
 * under the same check. A failing table is skipped with a warn()ed
 * reason instead of crashing; if even portable fails, the reference
 * runs as the last resort.
 *
 * Every kernel is bit-identical to the reference by contract: the
 * tests/kernels suite enforces equivalence exhaustively and by
 * randomized fuzzing, and the goldens / fuzz digests downstream
 * must not move when the dispatch choice changes.
 *
 * Masks are std::uint64_t, so kernels cover associativity <= 64;
 * callers keep their scalar paths for anything wider.
 */

#ifndef ASSOC_CORE_KERNELS_H
#define ASSOC_CORE_KERNELS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/transform.h"

namespace assoc {
namespace core {

/**
 * One implementation of the kernel set. All functions are
 * free-standing (no captured state) so a table is just function
 * pointers; none may assume plane alignment beyond the element
 * type's own (the self-check probes misaligned offsets).
 */
struct LookupKernels
{
    /** "avx2", "portable" or "reference". */
    const char *name = "reference";

    /**
     * Bit w set iff valid[w] != 0 and tags[w] == needle, for
     * w < a <= 64. The one kernel behind Traditional / Naive / MRU
     * scans: every serial order is a walk of this mask.
     */
    std::uint64_t (*eq_mask)(const std::uint32_t *tags,
                             const std::uint8_t *valid, unsigned a,
                             std::uint32_t needle);

    /**
     * eq_mask against a packed validity word instead of a byte
     * plane: bit w set iff bit w of valid_bits and vals[w] ==
     * needle (w < a <= 64). Feeds WriteBackCache::findWay straight
     * from the SoA valid bitmask.
     */
    std::uint64_t (*eq_mask_bits)(const std::uint32_t *vals,
                                  std::uint64_t valid_bits, unsigned a,
                                  std::uint32_t needle);

    /**
     * eq_mask_bits for the seqlock's optimistic read path: element
     * loads may race per-set-serialized writers, so they must be
     * torn-read tolerant. The portable and reference tables load
     * each element through a relaxed std::atomic_ref; the AVX2
     * body uses plain vector loads (element tearing is discarded by
     * the caller's seqlock validation) except under
     * ThreadSanitizer, where it routes to the shared relaxed body
     * so the formal data-race checker sees only relaxed atomics
     * (see docs/KERNELS.md).
     */
    std::uint64_t (*eq_mask_bits_relaxed)(const std::uint32_t *vals,
                                          std::uint64_t valid_bits,
                                          unsigned a,
                                          std::uint32_t needle);

    /**
     * Partial-compare step 1 over one subset of g ways (Section
     * 2.2): bit l set iff valid[l] != 0 and field l of the
     * transformed stored tag tags[l] equals inc_fields[l], for
     * l < g <= 64. The caller precomputes inc_fields[l] =
     * xf.field(xf.apply(incoming, l), l) once per lookup; the
     * stored side is evaluated per way inside the kernel (the
     * portable and AVX2 bodies use closed forms of the four
     * transforms, the reference body calls @p xf exactly like the
     * original strategy).
     *
     * @param k    field width in bits (xf.fieldBits()).
     * @param kind transform kind (selects the closed form).
     * @param xf   the strategy's transform (reference body only).
     */
    std::uint64_t (*partial_mask)(const std::uint32_t *tags,
                                  const std::uint8_t *valid, unsigned g,
                                  const std::uint32_t *inc_fields,
                                  unsigned k, TransformKind kind,
                                  const TagTransform &xf);

    /** out[i] = bit i of bits (0/1 bytes), i < n <= 64. The valid
     *  plane decode of snapshotSet(). */
    void (*expand_bits)(std::uint64_t bits, unsigned n,
                        std::uint8_t *out);

    /** out[i] = 4-bit slot i of word, i < n <= 16. The packed
     *  recency-order decode of snapshotSet(). */
    void (*expand_nibbles)(std::uint64_t word, unsigned n,
                           std::uint8_t *out);

    /** out[i] = in[i] >> shift, i < n (shift < 32). The full-tag
     *  plane decode of snapshotSet(). */
    void (*shift_tags)(const std::uint32_t *in, unsigned n,
                       unsigned shift, std::uint32_t *out);
};

/**
 * The reference table: the branchy scalar loops, the oracle for
 * kernelSelfCheck() and the tests. Never registered; dispatch falls
 * back to it only if portable fails its self-check.
 */
const LookupKernels &referenceKernels();

/** The portable best-per-op table (always registered). */
const LookupKernels &portableKernels();

/**
 * Every dispatchable table in this binary, in preference order:
 * avx2 (when compiled in *and* CPUID reports support), then
 * portable.
 */
std::vector<const LookupKernels *> registeredKernels();

/**
 * Run the smoke-vector equivalence sweep on @p k against the
 * reference: eq masks, partial masks under all four transforms,
 * plane decodes — each at several associativities and at misaligned
 * plane offsets. @return true when every vector matches; on
 * mismatch, false with a one-line reason in @p why (when non-null).
 */
bool kernelSelfCheck(const LookupKernels &k, std::string *why);

/**
 * The dispatch decision, as a pure function (unit-testable without
 * process-global state): the first table in @p registered
 * (preference order, as from registeredKernels()) that passes its
 * self-check, else referenceKernels() — never failing. @p reason
 * receives a one-line explanation.
 */
const LookupKernels &
chooseKernels(const std::vector<const LookupKernels *> &registered,
              std::string *reason);

/**
 * The table every strategy and plane decode dispatches through,
 * selected once at first use (thread-safe) and logged via warn()
 * when the choice involved a fallback.
 */
const LookupKernels &activeKernels();

/** Why activeKernels() picked what it picked (for tools/tests). */
const std::string &kernelDispatchReason();

/**
 * Temporarily force activeKernels() to a specific table (tests:
 * the equivalence suite runs every strategy under every table).
 * Not thread-safe against concurrent lookups; restore on scope
 * exit.
 */
class ScopedKernelOverride
{
  public:
    explicit ScopedKernelOverride(const LookupKernels &k);
    ~ScopedKernelOverride();

    ScopedKernelOverride(const ScopedKernelOverride &) = delete;
    ScopedKernelOverride &
    operator=(const ScopedKernelOverride &) = delete;

  private:
    const LookupKernels *saved_;
};

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_KERNELS_H
