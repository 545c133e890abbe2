/** Tests for eval_prof: profile.json parse/serialize, tree/bottom-up
 *  rendering, collapsed-stack flamegraph output, and profile diff
 *  (ordering, new paths, self-compare). */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "eval_prof.hh"
#include "valid/snapshot.hh"

namespace eval {
namespace {

using prof::DiffRow;
using prof::SpanProfile;
using prof::collapsedStacks;
using prof::diffProfiles;
using prof::formatNs;
using prof::parseProfileJson;
using prof::profileToJson;
using prof::renderDiff;
using prof::renderTree;
using prof::runEvalProf;

/** A profile with a root, two children, and a grandchild. */
SpanProfile
sampleProfile()
{
    SpanProfile p;
    auto add = [&p](const std::string &path, const std::string &name,
                    std::uint64_t count, std::uint64_t incl,
                    std::uint64_t self) {
        ProfileBucket b;
        b.path = path;
        b.name = name;
        b.count = count;
        b.inclNs = incl;
        b.selfNs = self;
        p[path] = b;
    };
    add("root", "root", 1, 10000000, 1000000);
    add("root;hot", "hot", 4, 6000000, 5000000);
    add("root;cold", "cold", 2, 3000000, 2000000);
    add("root;hot;leaf", "leaf", 8, 1000000, 1000000);
    return p;
}

TEST(EvalProfParse, ProfileJsonRoundTripsThroughParse)
{
    const SpanProfile p = sampleProfile();
    const SpanProfile back = parseProfileJson(profileToJson(p));
    ASSERT_EQ(back.size(), p.size());
    for (const auto &[path, bucket] : p) {
        const auto it = back.find(path);
        ASSERT_NE(it, back.end()) << path;
        EXPECT_EQ(it->second.name, bucket.name) << path;
        EXPECT_EQ(it->second.count, bucket.count) << path;
        EXPECT_EQ(it->second.inclNs, bucket.inclNs) << path;
        EXPECT_EQ(it->second.selfNs, bucket.selfNs) << path;
    }
}

TEST(EvalProfParse, MalformedProfileThrowsSnapshotError)
{
    EXPECT_THROW(parseProfileJson("{torn"), SnapshotError);
    EXPECT_THROW(parseProfileJson("[1, 2]"), SnapshotError);
    EXPECT_THROW(parseProfileJson("{\"schema_version\": 99}"),
                 SnapshotError);
}

TEST(EvalProfFormat, FormatNsPicksHumanUnits)
{
    EXPECT_EQ(formatNs(12), "12ns");
    EXPECT_EQ(formatNs(4500), "4.5us");
    EXPECT_EQ(formatNs(6200000), "6.2ms");
    EXPECT_EQ(formatNs(2338000000ull), "2.338s");
}

TEST(EvalProfTree, TopDownOrdersChildrenByInclusive)
{
    const std::string out = renderTree(sampleProfile(), false, 0);
    const std::size_t root = out.find("root");
    const std::size_t hot = out.find("hot");
    const std::size_t leaf = out.find("leaf");
    const std::size_t cold = out.find("cold");
    ASSERT_NE(root, std::string::npos);
    ASSERT_NE(hot, std::string::npos);
    ASSERT_NE(leaf, std::string::npos);
    ASSERT_NE(cold, std::string::npos);
    // DFS: root, then hot (larger inclusive) with its leaf, then cold.
    EXPECT_LT(root, hot);
    EXPECT_LT(hot, leaf);
    EXPECT_LT(leaf, cold);
    EXPECT_NE(out.find("x4"), std::string::npos);
}

TEST(EvalProfTree, TopCapsLinesAndCountsTheRest)
{
    const std::string out = renderTree(sampleProfile(), false, 2);
    EXPECT_NE(out.find("... (2 more)"), std::string::npos);
}

TEST(EvalProfTree, BottomUpRanksLeavesBySelfTime)
{
    const std::string out = renderTree(sampleProfile(), true, 0);
    // hot has the most self time, so it leads; the call site lists
    // its parent chain.
    const std::size_t hot = out.find("hot");
    const std::size_t fromRoot = out.find("from root");
    ASSERT_NE(hot, std::string::npos);
    ASSERT_NE(fromRoot, std::string::npos);
    EXPECT_LT(hot, fromRoot);
    EXPECT_NE(out.find("(root)"), std::string::npos);
}

TEST(EvalProfFlame, CollapsedStacksEmitSelfMicroseconds)
{
    const std::string out = collapsedStacks(sampleProfile());
    EXPECT_NE(out.find("root;hot 5000\n"), std::string::npos);
    EXPECT_NE(out.find("root;hot;leaf 1000\n"), std::string::npos);
    EXPECT_NE(out.find("root 1000\n"), std::string::npos);
    // Sub-microsecond self time is dropped, not rendered as 0.
    SpanProfile p = sampleProfile();
    p["root;hot"].selfNs = 300;
    EXPECT_EQ(collapsedStacks(p).find("root;hot "), std::string::npos);
}

TEST(EvalProfDiff, SelfCompareIsAllZero)
{
    const SpanProfile p = sampleProfile();
    const std::vector<DiffRow> rows = diffProfiles(p, p);
    ASSERT_EQ(rows.size(), p.size());
    for (const DiffRow &row : rows) {
        EXPECT_EQ(row.deltaSelfNs, 0);
        EXPECT_EQ(row.oldCount, row.newCount);
    }
}

TEST(EvalProfDiff, SortsByAbsoluteDelta)
{
    SpanProfile before = sampleProfile();
    SpanProfile after = sampleProfile();
    after["root;hot"].selfNs += 3000000;  // +60%
    after["root;cold"].selfNs -= 1500000; // -75% (improvement)
    const std::vector<DiffRow> rows = diffProfiles(before, after);
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows[0].path, "root;hot");
    EXPECT_EQ(rows[0].deltaSelfNs, 3000000);
    EXPECT_EQ(rows[1].path, "root;cold");
    // Diffing the other way, hot shrank; it still sorts first on
    // |delta|.
    const std::vector<DiffRow> improved = diffProfiles(after, before);
    ASSERT_EQ(improved[0].path, "root;hot");
    EXPECT_EQ(improved[0].deltaSelfNs, -3000000);
}

TEST(EvalProfDiff, NewPathsAreMarked)
{
    SpanProfile before = sampleProfile();
    SpanProfile after = sampleProfile();
    ProfileBucket fresh;
    fresh.path = "root;fresh";
    fresh.name = "fresh";
    fresh.count = 1;
    fresh.inclNs = 9000000;
    fresh.selfNs = 9000000;
    after[fresh.path] = fresh;
    const std::vector<DiffRow> rows = diffProfiles(before, after);
    EXPECT_EQ(rows[0].path, "root;fresh");
    EXPECT_NE(renderDiff(rows, 0).find("(new)"), std::string::npos);
}

TEST(EvalProfDiff, RenderCapsRows)
{
    const SpanProfile p = sampleProfile();
    const std::string out = renderDiff(diffProfiles(p, p), 1);
    EXPECT_NE(out.find("... (3 more)"), std::string::npos);
}

TEST(EvalProfCli, UsageAndMissingFileExitTwo)
{
    EXPECT_EQ(runEvalProf({}), 2);
    EXPECT_EQ(runEvalProf({"tree"}), 2);
    EXPECT_EQ(runEvalProf({"bogus", "x"}), 2);
    EXPECT_EQ(runEvalProf({"tree", "/nonexistent/profile.json"}), 2);
    EXPECT_EQ(runEvalProf({"diff", "/nonexistent/a", "/nonexistent/b"}),
              2);

    // diff is a reading tool with no gate: the removed gate flags are
    // unknown options, so a script still passing them fails loudly.
    const std::string path =
        (std::filesystem::temp_directory_path() / "eval_prof_cli.json")
            .string();
    {
        std::ofstream out(path);
        out << profileToJson(sampleProfile());
    }
    EXPECT_EQ(runEvalProf({"diff", path, path}), 0);
    EXPECT_EQ(runEvalProf({"diff", path, path, "--gate"}), 2);
    EXPECT_EQ(runEvalProf({"diff", path, path, "--threshold=5"}), 2);
    std::filesystem::remove(path);
}

} // namespace
} // namespace eval
