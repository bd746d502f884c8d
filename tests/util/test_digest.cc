/**
 * @file
 * Tests of the shared FNV-1a helpers (util/digest.h), and pins of the
 * digests that are written to disk: journal spec hashes and job-line
 * payload digests are checked on --resume, so a journal written by
 * an older build must keep resuming bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "exec/journal.h"
#include "util/digest.h"

namespace assoc {
namespace {

TEST(Fnv1a, MatchesTheReferenceVectors)
{
    EXPECT_EQ(fnvString(""), kFnvInit);
    EXPECT_EQ(fnvString("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnvString("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, MixIsEightLittleEndianBytes)
{
    const unsigned char le[8] = {0x08, 0x07, 0x06, 0x05,
                                 0x04, 0x03, 0x02, 0x01};
    std::uint64_t bytes = kFnvInit;
    fnvBytes(bytes, le, sizeof(le));
    std::uint64_t mixed = kFnvInit;
    fnvMix(mixed, 0x0102030405060708ULL);
    EXPECT_EQ(mixed, bytes);
}

TEST(DigestMix, OrderSensitive)
{
    std::uint64_t a = kFnvInit, b = kFnvInit;
    fnvMix(a, 1);
    fnvMix(a, 2);
    fnvMix(b, 2);
    fnvMix(b, 1);
    EXPECT_NE(a, b);
}

std::vector<sim::RunSpec>
pinnedSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 8u}) {
        sim::RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(4096, 16, 1),
            mem::CacheGeometry(65536, 32, a), true};
        core::SchemeSpec naive, mru;
        naive.kind = core::SchemeKind::Naive;
        mru.kind = core::SchemeKind::Mru;
        spec.schemes = {naive, mru, core::SchemeSpec::paperPartial(a)};
        specs.push_back(spec);
    }
    return specs;
}

TEST(JournalDigestPin, SpecHashesAreUnchanged)
{
    const std::vector<sim::RunSpec> specs = pinnedSpecs();
    EXPECT_EQ(exec::hashSpecs(specs, 0x5eed), 0xcf0bc259745a6845ULL);
    EXPECT_EQ(exec::hashSpec(specs[0]), 0x097ccd55f5d05ce5ULL);
}

TEST(JournalDigestPin, JobLineDigestIsUnchanged)
{
    const std::string payload = exec::encodeRunOutput(sim::RunOutput());
    EXPECT_EQ(fnvString(payload), 0xc2c0a859c26d09c7ULL);

    const std::string path = ::testing::TempDir() + "digest_pin.jrnl";
    exec::JournalWriter w;
    ASSERT_TRUE(w.open(path, 1, 1, false).ok());
    ASSERT_TRUE(w.append(0, sim::RunOutput()).ok());
    ASSERT_TRUE(w.close().ok());
    std::ifstream in(path);
    std::string line, last;
    while (std::getline(in, line))
        last = line;
    std::remove(path.c_str());
    EXPECT_EQ(last, "job 0 d=c2c0a859c26d09c7 " + payload);
}

} // namespace
} // namespace assoc
