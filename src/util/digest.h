/**
 * @file
 * 64-bit FNV-1a, the repository's one digest function.
 *
 * Campaign and determinism digests (src/check, fuzz_diff --digest),
 * journal line digests and spec hashes (exec/journal.h, written to
 * disk and checked on --resume) and trace replay digests
 * (trace_pack verify) all fold their inputs through these helpers,
 * so a value printed by one tool can be recomputed by any other.
 * Integers are folded as 8 little-endian bytes, which keeps every
 * digest platform-independent.
 */

#ifndef ASSOC_UTIL_DIGEST_H
#define ASSOC_UTIL_DIGEST_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace assoc {

/** FNV-1a 64-bit offset basis: the start value of every digest. */
constexpr std::uint64_t kFnvInit = 0xcbf29ce484222325ULL;

/** FNV-1a 64-bit prime. */
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Fold @p n bytes at @p data into digest @p h, in order. */
inline void
fnvBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

/** Fold @p v into digest @p h as 8 little-endian bytes. */
inline void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
}

/** FNV-1a digest of the bytes of @p s. */
inline std::uint64_t
fnvString(std::string_view s)
{
    std::uint64_t h = kFnvInit;
    fnvBytes(h, s.data(), s.size());
    return h;
}

} // namespace assoc

#endif // ASSOC_UTIL_DIGEST_H
