/**
 * @file
 * Tests for finding baselines: the file format (tabs, comments,
 * malformed-entry rejection), the fresh/baselined/stale partition,
 * renderBaseline round-trips, and the CLI contract on the
 * fixtures/baseline demo tree — one baselined + one fresh finding,
 * exit 1 only for the fresh one.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baseline.hh"
#include "lint.hh"

namespace {

namespace fs = std::filesystem;

using eval::lint::applyBaseline;
using eval::lint::Baseline;
using eval::lint::baselineKey;
using eval::lint::Diagnostic;
using eval::lint::loadBaseline;
using eval::lint::renderBaseline;

const std::string kFixtures = EVAL_LINT_FIXTURES;

fs::path
writeTemp(const std::string &name, const std::string &content)
{
    const fs::path path = fs::temp_directory_path() / name;
    std::ofstream out(path);
    out << content;
    return path;
}

TEST(LintBaseline, KeyIsRuleFileLine)
{
    EXPECT_EQ(baselineKey({"src/a.cc", 12, "det-entropy", "msg"}),
              "det-entropy\tsrc/a.cc\t12");
}

TEST(LintBaseline, LoadSkipsCommentsAndBlanks)
{
    const fs::path path = writeTemp(
        "eval_lint_baseline_ok.txt",
        "# header comment\n"
        "\n"
        "det-entropy\tsrc/a.cc\t12\n"
        "det-unordered\tsrc/b.cc\t3\n");
    std::string error;
    const Baseline b = loadBaseline(path, &error);
    fs::remove(path);
    ASSERT_TRUE(b.loaded) << error;
    ASSERT_EQ(b.keys.size(), 2u);
    EXPECT_EQ(b.keys[0], "det-entropy\tsrc/a.cc\t12");
}

TEST(LintBaseline, MalformedEntryFailsTheLoad)
{
    const fs::path path = writeTemp("eval_lint_baseline_bad.txt",
                                    "det-entropy src/a.cc\n");
    std::string error;
    const Baseline b = loadBaseline(path, &error);
    fs::remove(path);
    EXPECT_FALSE(b.loaded);
    EXPECT_FALSE(error.empty());
}

TEST(LintBaseline, MissingFileFailsTheLoad)
{
    std::string error;
    const Baseline b =
        loadBaseline(fs::temp_directory_path() / "eval_lint_nope.txt",
                     &error);
    EXPECT_FALSE(b.loaded);
    EXPECT_FALSE(error.empty());
}

TEST(LintBaseline, ApplyPartitionsFreshBaselinedStale)
{
    const std::vector<Diagnostic> diags = {
        {"src/a.cc", 12, "det-entropy", "old hit"},
        {"src/b.cc", 3, "det-unordered", "new hit"},
    };
    Baseline b;
    b.loaded = true;
    b.keys = {"det-entropy\tsrc/a.cc\t12",
              "det-wallclock\tsrc/gone.cc\t9"};
    const auto split = applyBaseline(diags, b);
    ASSERT_EQ(split.fresh.size(), 1u);
    EXPECT_EQ(split.fresh[0].file, "src/b.cc");
    ASSERT_EQ(split.baselined.size(), 1u);
    EXPECT_EQ(split.baselined[0].file, "src/a.cc");
    ASSERT_EQ(split.stale.size(), 1u);
    EXPECT_EQ(split.stale[0], "det-wallclock\tsrc/gone.cc\t9");
}

TEST(LintBaseline, RenderRoundTripsThroughLoad)
{
    const std::vector<Diagnostic> diags = {
        {"src/a.cc", 12, "det-entropy", "msg"},
        {"src/b.cc", 3, "det-unordered", "msg"},
    };
    const fs::path path = writeTemp("eval_lint_baseline_rt.txt",
                                    renderBaseline(diags));
    std::string error;
    const Baseline b = loadBaseline(path, &error);
    fs::remove(path);
    ASSERT_TRUE(b.loaded) << error;
    ASSERT_EQ(b.keys.size(), 2u);
    EXPECT_EQ(b.keys[0], baselineKey(diags[0]));
    EXPECT_EQ(b.keys[1], baselineKey(diags[1]));
    // Everything rendered is baselined on re-apply; nothing is stale.
    const auto split = applyBaseline(diags, b);
    EXPECT_TRUE(split.fresh.empty());
    EXPECT_TRUE(split.stale.empty());
}

// ---------------------------------------------------------------------------
// CLI contract on the demo tree (the workflow TESTING.md documents).
// ---------------------------------------------------------------------------

int
runBinary(const std::string &args)
{
    const std::string cmd = std::string(EVAL_LINT_BIN) + " " + args +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WEXITSTATUS(status);
}

TEST(LintBaselineCli, FreshFindingFailsBaselinedOneDoesNot)
{
    const std::string tree = kFixtures + "/baseline";
    // No baseline: both findings are fresh.
    EXPECT_EQ(runBinary("--root " + tree), 1);
    // Partial baseline: the det-wallclock finding is still fresh.
    EXPECT_EQ(runBinary("--root " + tree + " --baseline " + tree +
                        "/baseline.txt"),
              1);
    // Full baseline: nothing fresh left.
    EXPECT_EQ(runBinary("--root " + tree + " --baseline " + tree +
                        "/baseline-all.txt"),
              0);
}

TEST(LintBaselineCli, WriteBaselineZeroesTheNextRun)
{
    const std::string tree = kFixtures + "/baseline";
    const fs::path out =
        fs::temp_directory_path() / "eval_lint_written_baseline.txt";
    EXPECT_EQ(runBinary("--root " + tree + " --write-baseline " +
                        out.string()),
              0);
    EXPECT_EQ(runBinary("--root " + tree + " --baseline " + out.string()),
              0);
    fs::remove(out);
}

TEST(LintBaselineCli, BaselineAndWriteBaselineAreExclusive)
{
    const std::string tree = kFixtures + "/baseline";
    EXPECT_EQ(runBinary("--root " + tree + " --baseline " + tree +
                        "/baseline.txt --write-baseline /tmp/x.txt"),
              2);
    EXPECT_EQ(runBinary("--root " + tree +
                        " --baseline /does/not/exist.txt"),
              2);
}

} // namespace
