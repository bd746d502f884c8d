/**
 * @file
 * Corrupted-trace corpus: every checked-in bad file under
 * tests/trace/corpus/ is streamed through openTraceFile() — the one
 * opener the tools use — under all three ErrorPolicies. Whatever the
 * damage — bad magic or version, torn header, truncated body, junk
 * lines — a reader must terminate, never throw, either deliver a
 * bounded stream or report a structured Data/Io error with non-empty
 * text, and replay the same outcome after reset().
 *
 * The .bin files are hostile legacy input: packed-binary traces of a
 * format this repo no longer reads. Neither their extension nor their
 * "ASTR" magic names a known format, so they reach the din parser,
 * which must reject every line without delivering a record.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_file.h"

#ifndef ASSOC_CORPUS_DIR
#error "build must define ASSOC_CORPUS_DIR"
#endif

namespace assoc {
namespace trace {
namespace {

namespace fs = std::filesystem;

/** Corpus files with extension @p ext (every file when empty). */
std::vector<std::string>
corpusFiles(const std::string &ext = "")
{
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(ASSOC_CORPUS_DIR))
        if (ext.empty() || entry.path().extension() == ext)
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

/** Stream @p src to the end, bounded; returns records delivered. */
std::uint64_t
drain(TraceSource &src)
{
    constexpr std::uint64_t kBound = 100000;
    MemRef r;
    std::uint64_t n = 0;
    while (n <= kBound && src.next(r))
        ++n;
    EXPECT_LE(n, kBound) << "runaway reader";
    return n;
}

void
checkContract(const TraceSource &src, const std::string &file,
              ErrorMode mode)
{
    if (src.failed()) {
        EXPECT_TRUE(src.error().code() == ErrorCode::Data ||
                    src.error().code() == ErrorCode::Io)
            << file << ": " << src.error().text();
        EXPECT_FALSE(src.error().text().empty()) << file;
    } else if (mode == ErrorMode::Skip) {
        EXPECT_LE(src.skippedRecords(), ErrorPolicy().max_skips)
            << file;
    }
    if (mode == ErrorMode::FailFast) {
        EXPECT_EQ(src.skippedRecords(), 0u) << file;
    }
}

class CorpusTest : public ::testing::TestWithParam<ErrorMode>
{};

TEST_P(CorpusTest, EveryFileNeverCrashesTheReader)
{
    for (const char *ext : {".din", ".ftr", ".bin"})
        ASSERT_FALSE(corpusFiles(ext).empty()) << "no " << ext;
    ErrorPolicy policy;
    policy.mode = GetParam();
    for (const std::string &file : corpusFiles()) {
        std::unique_ptr<TraceSource> src = openTraceFile(file, policy);
        std::uint64_t n = drain(*src);
        checkContract(*src, file, policy.mode);
        // reset() replays the same outcome; an open-time error is
        // not forgotten.
        bool failed = src->failed();
        src->reset();
        EXPECT_EQ(drain(*src), n) << file;
        EXPECT_EQ(src->failed(), failed) << file;
    }
}

TEST_P(CorpusTest, LegacyBinFilesDeliverNoRecords)
{
    std::vector<std::string> files = corpusFiles(".bin");
    ASSERT_FALSE(files.empty());
    ErrorPolicy policy;
    policy.mode = GetParam();
    for (const std::string &file : files) {
        EXPECT_EQ(detectTraceFormat(file), TraceFormat::Din) << file;
        std::unique_ptr<TraceSource> src = openTraceFile(file, policy);
        EXPECT_EQ(drain(*src), 0u) << file;
        if (src->failed()) {
            EXPECT_EQ(src->error().code(), ErrorCode::Data)
                << file << ": " << src->error().text();
        }
        // FailFast and Strict stop at the first line; Skip may drop
        // every line instead, but must account for what it dropped.
        if (policy.mode == ErrorMode::Skip) {
            EXPECT_TRUE(src->failed() || src->skippedRecords() > 0)
                << file;
        } else {
            EXPECT_TRUE(src->failed()) << file;
        }
    }
}

TEST_P(CorpusTest, FailFastAndStrictRejectEveryCorpusFile)
{
    // Every corpus entry is damaged in a way FailFast detects —
    // except the strict_-prefixed ones, whose damage only Strict
    // rejects. Skip mode is allowed to recover from anything.
    if (GetParam() == ErrorMode::Skip)
        GTEST_SKIP() << "skip mode is allowed to recover";
    auto strictOnly = [](const std::string &file) {
        return fs::path(file).filename().string().rfind(
                   "strict_", 0) == 0;
    };
    ErrorPolicy policy;
    policy.mode = GetParam();
    for (const std::string &file : corpusFiles()) {
        if (policy.mode == ErrorMode::FailFast && strictOnly(file))
            continue;
        std::unique_ptr<TraceSource> src = openTraceFile(file, policy);
        drain(*src);
        EXPECT_TRUE(src->failed()) << file;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CorpusTest,
                         ::testing::Values(ErrorMode::FailFast,
                                           ErrorMode::Skip,
                                           ErrorMode::Strict),
                         [](const auto &info) {
                             switch (info.param) {
                               case ErrorMode::FailFast:
                                 return "FailFast";
                               case ErrorMode::Skip:
                                 return "Skip";
                               case ErrorMode::Strict:
                                 return "Strict";
                             }
                             return "Unknown";
                         });

} // namespace
} // namespace trace
} // namespace assoc
