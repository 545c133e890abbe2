/**
 * @file
 * Tests for phase 1 of the semantic analyzer: buildFileIndex() on
 * in-memory sources — include edges, memory-order uses, and
 * parallelFor/parallelMap lambda regions.
 */

#include <gtest/gtest.h>

#include <string>

#include "index.hh"

namespace {

using eval::lint::buildFileIndex;
using eval::lint::FileIndex;
using eval::lint::moduleOf;

TEST(LintIndex, ModuleOf)
{
    EXPECT_EQ(moduleOf("src/core/eval.cc"), "core");
    EXPECT_EQ(moduleOf("src/util/fft.cc"), "util");
    EXPECT_EQ(moduleOf("src/loose.cc"), "");
    EXPECT_EQ(moduleOf("bench/bench.cpp"), "");
    EXPECT_EQ(moduleOf("tools/lint/lint.cc"), "");
}

TEST(LintIndex, IncludesRecordPathLineAndAngled)
{
    const FileIndex idx = buildFileIndex(
        "src/core/x.cc",
        "#include \"timing/error_model.hh\"\n"
        "#include <vector>\n"
        "  #  include \"local.hh\"\n"
        "// #include \"commented_out.hh\" is still an include line\n");
    ASSERT_EQ(idx.includes.size(), 3u);
    EXPECT_EQ(idx.includes[0].path, "timing/error_model.hh");
    EXPECT_EQ(idx.includes[0].line, 1);
    EXPECT_FALSE(idx.includes[0].angled);
    EXPECT_EQ(idx.includes[1].path, "vector");
    EXPECT_TRUE(idx.includes[1].angled);
    EXPECT_EQ(idx.includes[2].path, "local.hh");
    EXPECT_EQ(idx.includes[2].line, 3);
}

TEST(LintIndex, AtomicsRecordEveryMemoryOrderSpelling)
{
    const FileIndex idx = buildFileIndex(
        "src/stats/x.cc",
        "void f(std::atomic<int> &a) {\n"
        "    a.fetch_add(1, std::memory_order_relaxed);\n"
        "    a.load(std::memory_order::acquire);\n"
        "    a.store(2, std::memory_order_seq_cst);\n"
        "}\n");
    ASSERT_EQ(idx.atomics.size(), 3u);
    EXPECT_EQ(idx.atomics[0].order, "relaxed");
    EXPECT_EQ(idx.atomics[0].line, 2);
    EXPECT_EQ(idx.atomics[1].order, "acquire");
    EXPECT_EQ(idx.atomics[2].order, "seq_cst");
}

TEST(LintIndex, TokensInCommentsAndStringsAreNotIndexed)
{
    const FileIndex idx = buildFileIndex(
        "src/core/x.cc",
        "// memory_order_relaxed in a comment\n"
        "const char *s = \"memory_order_relaxed\";\n"
        "/* parallelFor(0, n, 1, [&](std::size_t i) {}) */\n");
    EXPECT_TRUE(idx.atomics.empty());
    EXPECT_TRUE(idx.regions.empty());
}

TEST(LintIndex, ParallelRegionCapturesParamsAndBody)
{
    const FileIndex idx = buildFileIndex(
        "src/core/x.cc",
        "void f(std::vector<double> &out, std::size_t n) {\n"
        "    parallelFor(0, n, 1, [&out, total](std::size_t i) {\n"
        "        out[i] = 2.0 * static_cast<double>(i);\n"
        "    });\n"
        "}\n");
    ASSERT_EQ(idx.regions.size(), 1u);
    const auto &region = idx.regions[0];
    EXPECT_EQ(region.entry, "parallelFor");
    EXPECT_EQ(region.captures, "&out, total");
    ASSERT_EQ(region.params.size(), 1u);
    EXPECT_EQ(region.params[0], "i");
    EXPECT_NE(region.body.find("out[i]"), std::string::npos);
    // bodyOffset maps back into the file: the body starts on line 2.
    EXPECT_EQ(idx.lineAt(region.bodyOffset), 2);
}

TEST(LintIndex, SubscriptBeforeLambdaIsNotARegion)
{
    // The '[' of args[0] must not be mistaken for a lambda introducer.
    const FileIndex idx = buildFileIndex(
        "src/core/x.cc",
        "void f(std::vector<int> &args, std::size_t n) {\n"
        "    parallelMap(args[0], [&](std::size_t i) { use(i); });\n"
        "}\n");
    ASSERT_EQ(idx.regions.size(), 1u);
    EXPECT_EQ(idx.regions[0].entry, "parallelMap");
    EXPECT_EQ(idx.regions[0].captures, "&");
}

} // namespace
