/**
 * @file
 * Kernel dispatch and self-check behavior: the registry holds
 * exactly avx2 (when the CPU has it) and portable, the reference
 * oracle is never registered, and — the startup fix this suite
 * guards — a table failing its smoke vectors is skipped with a
 * reason instead of crashing or silently miscounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kernels.h"

namespace assoc {
namespace core {
namespace {

/** A deliberately broken copy of @p base: eq_mask claims every way
 *  matches. */
LookupKernels
brokenKernels(const LookupKernels &base, const char *name)
{
    LookupKernels k = base;
    k.name = name;
    k.eq_mask = +[](const std::uint32_t *, const std::uint8_t *,
                    unsigned, std::uint32_t) -> std::uint64_t {
        return ~0ull;
    };
    return k;
}

TEST(KernelDispatch, RegistryIsAvx2IfSupportedThenPortable)
{
    std::vector<const LookupKernels *> reg = registeredKernels();
    ASSERT_GE(reg.size(), 1u);
    ASSERT_LE(reg.size(), 2u);
    EXPECT_EQ(&portableKernels(), reg.back());
    if (reg.size() == 2) {
        EXPECT_STREQ("avx2", reg.front()->name);
    }
#if defined(__x86_64__) && !defined(ASSOC_NO_AVX2_KERNELS)
    EXPECT_EQ(__builtin_cpu_supports("avx2") ? 2u : 1u, reg.size());
#else
    EXPECT_EQ(1u, reg.size());
#endif
}

TEST(KernelDispatch, ReferenceIsNeverRegistered)
{
    for (const LookupKernels *k : registeredKernels()) {
        EXPECT_NE(&referenceKernels(), k) << k->name;
        EXPECT_STRNE("reference", k->name);
    }
}

TEST(KernelDispatch, EveryRegisteredTablePassesItsSelfCheck)
{
    for (const LookupKernels *k : registeredKernels()) {
        std::string why;
        EXPECT_TRUE(kernelSelfCheck(*k, &why))
            << k->name << ": " << why;
    }
}

TEST(KernelDispatch, SelfCheckCatchesACorruptTable)
{
    LookupKernels bad = brokenKernels(portableKernels(), "broken");
    std::string why;
    EXPECT_FALSE(kernelSelfCheck(bad, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_NE(std::string::npos, why.find("eq_mask")) << why;
}

TEST(KernelDispatch, ChooseTakesTheFirstPassingTable)
{
    std::string reason;
    const LookupKernels &k = chooseKernels(registeredKernels(), &reason);
    EXPECT_EQ(registeredKernels().front(), &k);
    EXPECT_EQ(std::string(k.name) + " selected", reason);
}

TEST(KernelDispatch, BrokenCandidateIsSkippedNotFatal)
{
    // A corrupt avx2 table falls back to portable, with a reason.
    LookupKernels bad = brokenKernels(portableKernels(), "avx2");
    std::vector<const LookupKernels *> reg = {&bad, &portableKernels()};
    std::string reason;
    const LookupKernels &k = chooseKernels(reg, &reason);
    EXPECT_EQ(&portableKernels(), &k);
    EXPECT_NE(std::string::npos,
              reason.find("avx2 failed its self-check"))
        << reason;
    EXPECT_NE(std::string::npos,
              reason.find("portable selected as fallback"))
        << reason;
}

TEST(KernelDispatch, CorruptPortableFallsBackToReference)
{
    LookupKernels bad = brokenKernels(portableKernels(), "portable");
    std::vector<const LookupKernels *> reg = {&bad};
    std::string reason;
    const LookupKernels &k = chooseKernels(reg, &reason);
    EXPECT_EQ(&referenceKernels(), &k);
    EXPECT_NE(std::string::npos,
              reason.find("portable failed its self-check"))
        << reason;
    EXPECT_NE(std::string::npos, reason.find("last resort")) << reason;
}

TEST(KernelDispatch, ActiveTableIsRegisteredAndExplained)
{
    const LookupKernels &active = activeKernels();
    bool registered = false;
    for (const LookupKernels *k : registeredKernels())
        if (k == &active)
            registered = true;
    EXPECT_TRUE(registered) << active.name;
    EXPECT_FALSE(kernelDispatchReason().empty());
    std::string why;
    EXPECT_TRUE(kernelSelfCheck(active, &why)) << why;
}

TEST(KernelDispatch, ScopedOverrideAppliesAndRestores)
{
    const LookupKernels &before = activeKernels();
    {
        ScopedKernelOverride o(referenceKernels());
        EXPECT_EQ(&referenceKernels(), &activeKernels());
        {
            ScopedKernelOverride inner(portableKernels());
            EXPECT_EQ(&portableKernels(), &activeKernels());
        }
        EXPECT_EQ(&referenceKernels(), &activeKernels());
    }
    EXPECT_EQ(&before, &activeKernels());
}

} // namespace
} // namespace core
} // namespace assoc
