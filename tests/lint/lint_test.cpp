/**
 * @file
 * Tests for eval-lint: rule detection on the fixture corpus, inline
 * suppression handling (including rejection of unjustified or unknown
 * suppressions), and the gate itself — the real tree must lint clean.
 *
 * The fixtures are two miniature repo trees under
 * tests/lint/fixtures/{violating,clean}; rule path-scoping works on
 * paths relative to each tree's root, so fixtures exercise src/-only
 * rules without touching real sources.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "lint.hh"

namespace {

using eval::lint::Diagnostic;
using eval::lint::lintSource;
using eval::lint::Options;
using eval::lint::runLint;

const std::string kFixtures = EVAL_LINT_FIXTURES;
const std::string kRepoRoot = EVAL_LINT_REPO_ROOT;

int
countRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    return static_cast<int>(
        std::count_if(diags.begin(), diags.end(),
                      [&](const Diagnostic &d) { return d.rule == rule; }));
}

bool
hasFinding(const std::vector<Diagnostic> &diags, const std::string &file,
           int line, const std::string &rule)
{
    return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic &d) {
        return d.file == file && d.line == line && d.rule == rule;
    });
}

std::vector<Diagnostic>
lintFixtureTree(const std::string &which)
{
    Options opts;
    opts.root = kFixtures + "/" + which;
    std::string error;
    auto diags = runLint(opts, &error);
    EXPECT_EQ(error, "");
    return diags;
}

// ---------------------------------------------------------------------------
// Violating corpus: every rule fires with the right id at the right
// place, and the finding count is stable.
// ---------------------------------------------------------------------------

TEST(LintCorpus, ViolatingTreeTripsEveryRule)
{
    const auto diags = lintFixtureTree("violating");

    // Every catalog rule has a failing fixture: a rule nothing trips
    // is a rule nothing tests.
    for (const auto &rule : eval::lint::ruleCatalog())
        EXPECT_GE(countRule(diags, rule.id), 1) << rule.id;
    for (const auto &d : diags)
        EXPECT_TRUE(eval::lint::isKnownRule(d.rule)) << d.rule;
    EXPECT_FALSE(eval::lint::isKnownRule("no-such-rule"));

    EXPECT_EQ(countRule(diags, "det-unordered"), 4); // 1 + 3 under bad supps
    EXPECT_EQ(countRule(diags, "det-par-capture"), 2); // push_back + sum +=
    EXPECT_EQ(countRule(diags, "perf-hot-alloc"), 7); // 6 kernel + 1 marker
    EXPECT_EQ(countRule(diags, "lay-edge"), 1);
    EXPECT_EQ(countRule(diags, "lay-module"), 1);
    // One of each stale flavor: unexercised edge, fileless module.
    EXPECT_EQ(countRule(diags, "lay-unused-edge"), 2);
    EXPECT_EQ(countRule(diags, "lay-manifest"), 1);
    EXPECT_EQ(countRule(diags, "atomics-relaxed"), 1);
    // 3 bad allow() forms + the bare hot-path marker
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 4);
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 1);

    EXPECT_TRUE(hasFinding(diags, "src/model/bad_unordered.cc", 11,
                           "det-unordered"));
    EXPECT_TRUE(hasFinding(diags, "src/kernels/bad_hot_alloc.cc", 20,
                           "perf-hot-alloc"));
    EXPECT_TRUE(hasFinding(diags, "src/kernels/bad_hot_alloc.cc", 23,
                           "perf-hot-alloc"));
    EXPECT_TRUE(hasFinding(diags, "src/kernels/bad_hot_alloc.cc", 28,
                           "perf-hot-alloc"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_hot_marker.cc", 11,
                           "perf-hot-alloc"));
    // The bare hot-path marker still marks the file (so the alloc above
    // fires) but is itself flagged for its missing justification.
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_hot_marker.cc", 3,
                           "lint-bad-suppression"));
    EXPECT_TRUE(hasFinding(diags, "src/model/unused_suppression.cc", 8,
                           "lint-unused-suppression"));

    // Project passes: layering, atomics, data-flow.
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_layer.cc", 3, "lay-edge"));
    EXPECT_TRUE(hasFinding(diags, "src/undeclared/widget.cc", 1,
                           "lay-module"));
    EXPECT_TRUE(hasFinding(diags, "layers.toml", 13, "lay-unused-edge"));
    EXPECT_TRUE(hasFinding(diags, "layers.toml", 15, "lay-unused-edge"));
    EXPECT_TRUE(hasFinding(diags, "layers.toml", 17, "lay-manifest"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_atomics.cc", 13,
                           "atomics-relaxed"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_par_capture.cc", 22,
                           "det-par-capture"));
    EXPECT_TRUE(hasFinding(diags, "bench/bad_par_capture.cpp", 21,
                           "det-par-capture"));
}

TEST(LintCorpus, CleanTreeIsClean)
{
    const auto diags = lintFixtureTree("clean");
    for (const auto &d : diags)
        ADD_FAILURE() << eval::lint::formatDiagnostic(d);
}

TEST(LintCorpus, IncludeLinesAreNotUnorderedFindings)
{
    const auto diags = lintFixtureTree("violating");
    // bad_unordered.cc has #include <unordered_map> on line 4; only
    // the declaration on line 11 may be reported.
    EXPECT_FALSE(hasFinding(diags, "src/model/bad_unordered.cc", 4,
                            "det-unordered"));
}

TEST(LintCorpus, OrderIsSortedByFileLineRule)
{
    const auto diags = lintFixtureTree("violating");
    ASSERT_FALSE(diags.empty());
    for (std::size_t i = 1; i < diags.size(); ++i) {
        const auto &a = diags[i - 1];
        const auto &b = diags[i];
        EXPECT_LE(std::tie(a.file, a.line, a.rule),
                  std::tie(b.file, b.line, b.rule))
            << a.file << ":" << a.line << " vs " << b.file << ":"
            << b.line;
    }
}

// ---------------------------------------------------------------------------
// Suppression semantics (library-level, on in-memory sources)
// ---------------------------------------------------------------------------

TEST(LintSuppression, JustifiedSuppressionSilencesAndIsUsed)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    // eval-lint: allow(det-unordered) fixture: justified\n"
        "    std::unordered_map<int, int> m;\n"
        "}\n");
    EXPECT_TRUE(diags.empty())
        << (diags.empty() ? ""
                          : eval::lint::formatDiagnostic(diags.front()));
}

TEST(LintSuppression, TrailingCommentCoversItsOwnLine)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    std::unordered_map<int, int> m; "
        "// eval-lint: allow(det-unordered) ok\n"
        "}\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, MultiLineJustificationStillCoversNextCodeLine)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    // eval-lint: allow(det-unordered) a justification that\n"
        "    // continues on a second comment line before the code\n"
        "    std::unordered_map<int, int> m;\n"
        "}\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, MissingJustificationIsRejected)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    std::unordered_map<int, int> m; "
        "// eval-lint: allow(det-unordered)\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 1);
    // The suppression is void, so the original finding survives too.
    EXPECT_EQ(countRule(diags, "det-unordered"), 1);
}

TEST(LintSuppression, UnknownRuleIsRejected)
{
    const auto diags = lintSource(
        "src/x.cc",
        "// eval-lint: allow(no-such-rule) why not\n"
        "int x;\n");
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 1);
}

TEST(LintSuppression, AuditRulesAreNotSuppressible)
{
    const auto diags = lintSource(
        "src/x.cc",
        "// eval-lint: allow(lint-unused-suppression) nice try\n"
        "int x;\n");
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 1);
}

TEST(LintSuppression, UnusedSuppressionIsReported)
{
    const auto diags = lintSource(
        "src/x.cc",
        "// eval-lint: allow(det-unordered) nothing here is unordered\n"
        "int x;\n");
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 1);
}

TEST(LintSuppression, SuppressionOnlyCoversItsRule)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    // eval-lint: allow(det-par-capture) wrong rule for this line\n"
        "    std::unordered_map<int, int> m;\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-unordered"), 1);
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 1);
}

TEST(LintSuppression, CommaListCoversMultipleRules)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    // eval-lint: allow(det-unordered, atomics-relaxed) both\n"
        "    std::unordered_set<int> s; c.load(std::memory_order_relaxed);\n"
        "}\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, BlockCommentsAreProseNotSuppressions)
{
    // Docs may quote the syntax inside /* */ without activating it —
    // and without being flagged as malformed.
    const auto diags = lintSource(
        "src/x.cc",
        "/* The syntax is: eval-lint: allow(rule) justification */\n"
        "int x;\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, BlockCommentSuppressionDoesNotSilence)
{
    // The allow() form is honored only in line comments; quoting it in
    // a block comment right above the finding must not suppress it.
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    /* eval-lint: allow(det-unordered) quoted, not active */\n"
        "    std::unordered_map<int, int> m;\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-unordered"), 1);
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 0);
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 0);
}

TEST(LintSuppression, RawStringSuppressionIsInert)
{
    // A suppression spelled inside a raw string literal is data, not a
    // directive: the finding on the next line survives, and the quoted
    // text is neither "bad" nor "unused".
    const auto diags = lintSource(
        "src/x.cc",
        "const char *doc =\n"
        "    R\"(// eval-lint: allow(det-unordered) quoted example)\";\n"
        "std::unordered_map<int, int> m;\n");
    EXPECT_EQ(countRule(diags, "det-unordered"), 1);
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 0);
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 0);
}

TEST(LintSuppression, RawStringFileMarkerIsInert)
{
    // A counters-only marker inside a raw string must not mark the
    // file: the relaxed atomic still needs a real allowance.
    const auto diags = lintSource(
        "src/x.cc",
        "#include <atomic>\n"
        "const char *doc = R\"(eval-lint: counters-only quoted)\";\n"
        "std::atomic<int> c{0};\n"
        "void t() { c.fetch_add(1, std::memory_order_relaxed); }\n");
    EXPECT_EQ(countRule(diags, "atomics-relaxed"), 1);
}

TEST(LintSuppression, BlockCommentHotPathMarkerIsInert)
{
    // hot-path in a block comment must not opt the file into the
    // hot-kernel allocation rule.
    const auto diags = lintSource(
        "src/model/x.cc",
        "/* eval-lint: hot-path quoted in prose */\n"
        "double *f(unsigned n) { return new double[n]; }\n");
    EXPECT_EQ(countRule(diags, "perf-hot-alloc"), 0);
}

// ---------------------------------------------------------------------------
// Rule edges
// ---------------------------------------------------------------------------

TEST(LintRules, TokensInsideStringsAndCommentsDoNotFire)
{
    const auto diags = lintSource(
        "src/kernels/x.cc",
        "// std::unordered_map<int, int> in a comment\n"
        "const char *s = \"new std::unordered_set<int>\";\n"
        "/* malloc(42) in a block comment */\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRules, PathScopingLimitsTheTokenRules)
{
    const std::string unordered = "std::unordered_map<int, int> m;\n";
    EXPECT_EQ(countRule(lintSource("src/core/t.cc", unordered),
                        "det-unordered"),
              1);
    for (const char *path : {"tests/t.cc", "bench/b.cpp", "tools/x/y.cc"})
        EXPECT_TRUE(lintSource(path, unordered).empty()) << path;

    const std::string alloc = "double *f() { return new double[4]; }\n";
    EXPECT_EQ(countRule(lintSource("src/kernels/k.cc", alloc),
                        "perf-hot-alloc"),
              1);
    EXPECT_TRUE(lintSource("src/core/t.cc", alloc).empty());
    EXPECT_EQ(countRule(lintSource("src/core/t.cc",
                                   "// eval-lint: hot-path per-cycle loop\n" +
                                       alloc),
                        "perf-hot-alloc"),
              1);
}

// ---------------------------------------------------------------------------
// Root normalization: a root of `tree`, `tree/`, or a symlink to the
// tree must scope rules identically and report identical findings.
// ---------------------------------------------------------------------------

std::vector<Diagnostic>
lintRoot(const std::string &root)
{
    Options opts;
    opts.root = root;
    std::string error;
    auto diags = runLint(opts, &error);
    EXPECT_EQ(error, "") << "root: " << root;
    return diags;
}

TEST(LintRoot, TrailingSlashDoesNotChangeFindings)
{
    const auto plain = lintRoot(kFixtures + "/violating");
    const auto slashed = lintRoot(kFixtures + "/violating/");
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(plain, slashed);
}

TEST(LintRoot, SymlinkedRootDoesNotChangeFindings)
{
    namespace fs = std::filesystem;
    const fs::path link =
        fs::temp_directory_path() / "eval_lint_root_symlink_test";
    std::error_code ec;
    fs::remove(link, ec);
    fs::create_directory_symlink(kFixtures + "/violating", link, ec);
    if (ec)
        GTEST_SKIP() << "cannot create symlink: " << ec.message();

    const auto plain = lintRoot(kFixtures + "/violating");
    const auto viaLink = lintRoot(link.string());
    fs::remove(link, ec);

    ASSERT_FALSE(plain.empty());
    // Identical findings with identical (relative) paths: rule scoping
    // is anchored at the root as given, whatever its spelling.
    EXPECT_EQ(plain, viaLink);
}

// ---------------------------------------------------------------------------
// The gate: the real tree lints clean.
// ---------------------------------------------------------------------------

TEST(LintTree, MissingRootIsAnError)
{
    Options opts;
    opts.root = kFixtures + "/does-not-exist";
    std::string error;
    EXPECT_TRUE(runLint(opts, &error).empty());
    EXPECT_NE(error.find("not a directory"), std::string::npos) << error;
}

TEST(LintTree, RealTreeIsClean)
{
    Options opts;
    opts.root = kRepoRoot;
    opts.excludes = {"tests/lint/fixtures"};
    std::string error;
    const auto diags = runLint(opts, &error);
    EXPECT_EQ(error, "");
    for (const auto &d : diags)
        ADD_FAILURE() << eval::lint::formatDiagnostic(d);
}

} // namespace
