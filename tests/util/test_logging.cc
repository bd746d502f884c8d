#include <gtest/gtest.h>

#include <string>

#include "util/logging.h"

namespace assoc {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("bad config");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: bad config");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
    try {
        panic("invariant");
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: invariant");
    }
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "no"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "no"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, CheckMessagesKeepTheirExactText)
{
    // Literal messages and messages concatenated into a std::string
    // at the call site reach the exception text unchanged.
    const std::string name = "jobs";
    const std::string value = "4x";
    try {
        fatalIf(true, "associativity above 255 unsupported");
        ADD_FAILURE() << "fatalIf did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: associativity above 255 unsupported");
    }
    try {
        fatalIf(true, "flag --" + name + ": trailing junk in '" + value +
                          "'");
        ADD_FAILURE() << "fatalIf did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: flag --jobs: trailing junk in '4x'");
    }
    try {
        panicIf(true, "way missing from recency order");
        ADD_FAILURE() << "panicIf did not throw";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: way missing from recency order");
    }
    try {
        panicIf(true, "flag --" + name + " was never registered");
        ADD_FAILURE() << "panicIf did not throw";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: flag --jobs was never registered");
    }
}

TEST(Logging, FatalErrorIsARuntimeError)
{
    // Library users can catch std::runtime_error for user errors
    // and std::logic_error for bugs.
    EXPECT_THROW(fatal("x"), std::runtime_error);
    EXPECT_THROW(panic("x"), std::logic_error);
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    setQuiet(true);
    EXPECT_NO_THROW(warn("w"));
    EXPECT_NO_THROW(inform("i"));
    setQuiet(false);
}

} // namespace
} // namespace assoc
