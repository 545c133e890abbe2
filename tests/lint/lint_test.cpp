/**
 * @file
 * Tests for eval-lint: rule detection on the fixture corpus, inline
 * suppression handling (including rejection of unjustified or unknown
 * suppressions), exit codes of both the library and the installed
 * binary, and the merge gate itself — the real tree must lint clean.
 *
 * The fixtures are two miniature repo trees under
 * tests/lint/fixtures/{violating,clean}; rule path-scoping works on
 * paths relative to each tree's root, so fixtures exercise src/-only
 * rules without touching real sources.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
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
    EXPECT_EQ(eval::lint::exitCodeFor(diags), 1);

    EXPECT_EQ(countRule(diags, "det-entropy"), 7); // 4 + 3 under bad supps
    EXPECT_EQ(countRule(diags, "det-wallclock"), 2); // model + stats
    EXPECT_EQ(countRule(diags, "det-unordered"), 1);
    EXPECT_EQ(countRule(diags, "det-shared-rng"), 2);
    EXPECT_EQ(countRule(diags, "det-par-capture"), 2); // push_back + sum +=
    EXPECT_EQ(countRule(diags, "hyg-pragma-once"), 1);
    EXPECT_EQ(countRule(diags, "hyg-using-namespace"), 1);
    EXPECT_EQ(countRule(diags, "hyg-iostream"), 3);
    EXPECT_EQ(countRule(diags, "obs-span-leak"), 5);
    EXPECT_EQ(countRule(diags, "perf-hot-alloc"), 7); // 6 kernel + 1 marker
    EXPECT_EQ(countRule(diags, "lay-edge"), 1);
    EXPECT_EQ(countRule(diags, "lay-cycle"), 1);
    EXPECT_EQ(countRule(diags, "lay-module"), 1);
    // One of each stale flavor: unexercised edge, fileless module,
    // unmatched exception entry.
    EXPECT_EQ(countRule(diags, "lay-unused-edge"), 3);
    EXPECT_EQ(countRule(diags, "exc-contract"), 1);
    EXPECT_EQ(countRule(diags, "atomics-relaxed"), 1);
    // fetch_add, ++ and -= in a counters-only kernel file
    EXPECT_EQ(countRule(diags, "atomics-hot-rmw"), 3);
    // 3 bad allow() forms + the bare hot-path marker
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 4);
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 1);

    EXPECT_TRUE(hasFinding(diags, "src/model/bad_entropy.cc", 15,
                           "det-entropy"));
    EXPECT_TRUE(hasFinding(diags, "src/stats/bad_clock.cc", 10,
                           "det-wallclock"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_header.hh", 1,
                           "hyg-pragma-once"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_header.hh", 8,
                           "hyg-using-namespace"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_unordered.cc", 11,
                           "det-unordered"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_span_leak.cc", 15,
                           "obs-span-leak"));
    EXPECT_TRUE(hasFinding(diags, "src/kernels/bad_hot_alloc.cc", 20,
                           "perf-hot-alloc"));
    EXPECT_TRUE(hasFinding(diags, "src/kernels/bad_hot_alloc.cc", 23,
                           "perf-hot-alloc"));
    EXPECT_TRUE(hasFinding(diags, "src/kernels/bad_hot_alloc.cc", 28,
                           "perf-hot-alloc"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_hot_marker.cc", 11,
                           "perf-hot-alloc"));
    for (int line : {17, 18, 20})
        EXPECT_TRUE(hasFinding(diags, "src/kernels/bad_shared_rmw.cc", line,
                               "atomics-hot-rmw"))
            << line;
    // The bare hot-path marker still marks the file (so the alloc above
    // fires) but is itself flagged for its missing justification.
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_hot_marker.cc", 3,
                           "lint-bad-suppression"));

    // Project passes: layering, cycles, contracts, atomics, data-flow.
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_layer.cc", 3, "lay-edge"));
    EXPECT_TRUE(hasFinding(diags, "src/model/cycle_b.hh", 4, "lay-cycle"));
    EXPECT_TRUE(hasFinding(diags, "src/undeclared/widget.cc", 1,
                           "lay-module"));
    EXPECT_TRUE(hasFinding(diags, "layers.toml", 15, "lay-unused-edge"));
    EXPECT_TRUE(hasFinding(diags, "layers.toml", 17, "lay-unused-edge"));
    EXPECT_TRUE(hasFinding(diags, "layers.toml", 21, "lay-unused-edge"));
    EXPECT_TRUE(hasFinding(diags, "src/model/bad_throw.cc", 11,
                           "exc-contract"));
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
    EXPECT_EQ(eval::lint::exitCodeFor(diags), 0);
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
        "    // eval-lint: allow(det-entropy) fixture: justified\n"
        "    (void)rand();\n"
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
        "    (void)rand(); // eval-lint: allow(det-entropy) fixture ok\n"
        "}\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, MultiLineJustificationStillCoversNextCodeLine)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    // eval-lint: allow(det-entropy) a justification that\n"
        "    // continues on a second comment line before the code\n"
        "    (void)rand();\n"
        "}\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, MissingJustificationIsRejected)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    (void)rand(); // eval-lint: allow(det-entropy)\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "lint-bad-suppression"), 1);
    // The suppression is void, so the original finding survives too.
    EXPECT_EQ(countRule(diags, "det-entropy"), 1);
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
        "// eval-lint: allow(det-entropy) nothing here draws entropy\n"
        "int x;\n");
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 1);
}

TEST(LintSuppression, SuppressionOnlyCoversItsRule)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    // eval-lint: allow(det-unordered) wrong rule for this line\n"
        "    (void)rand();\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-entropy"), 1);
    EXPECT_EQ(countRule(diags, "lint-unused-suppression"), 1);
}

TEST(LintSuppression, CommaListCoversMultipleRules)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    // eval-lint: allow(det-entropy, det-wallclock) fixture: both\n"
        "    (void)rand(); (void)std::chrono::steady_clock::now();\n"
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
        "    /* eval-lint: allow(det-entropy) quoted, not active */\n"
        "    (void)rand();\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-entropy"), 1);
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
        "    R\"(// eval-lint: allow(det-entropy) quoted example)\";\n"
        "int noise() { return rand(); }\n");
    EXPECT_EQ(countRule(diags, "det-entropy"), 1);
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
        "src/x.cc",
        "// rand() in a comment\n"
        "const char *s = \"rand() in a string\";\n"
        "/* srand(42) in a block comment */\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRules, PathScopingExemptsTheSanctionedLayers)
{
    EXPECT_TRUE(lintSource("src/util/random.cc", "int x = rand();\n")
                    .empty());
    EXPECT_TRUE(lintSource("src/trace/t.cc",
                           "auto t = steady_clock::now();\n")
                    .empty());
    EXPECT_TRUE(lintSource("tests/t.cc",
                           "auto t = steady_clock::now();\n")
                    .empty());
    for (const char *path : {"src/core/t.cc", "src/stats/t.cc"})
        EXPECT_EQ(countRule(lintSource(path,
                                       "auto t = steady_clock::now();\n"),
                            "det-wallclock"),
                  1)
            << path;
}

TEST(LintRules, SplitDerivedStreamsPassSharedRng)
{
    const auto diags = lintSource(
        "src/x.cc",
        "void f() {\n"
        "    parallelFor(0, n, 1, [&](std::size_t i) {\n"
        "        auto local = master.split(i);\n"
        "        out[i] = local.uniform();\n"
        "    });\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-shared-rng"), 0);
}

TEST(LintRules, SpanLeakFlagsEscapesButNotStackSpans)
{
    // Stack RAII spans are the sanctioned pattern.
    EXPECT_TRUE(lintSource("src/core/t.cc",
                           "void f() {\n"
                           "    ScopedSpan span(\"core.f\");\n"
                           "    span.arg(\"n\", 1);\n"
                           "}\n")
                    .empty());
    // Heap spans, span references, and the raw handle API leak.
    EXPECT_EQ(countRule(lintSource("src/core/t.cc",
                                   "auto *s = new ScopedSpan(\"x\");\n"),
                        "obs-span-leak"),
              1);
    EXPECT_EQ(countRule(lintSource("src/core/t.cc",
                                   "void g(ScopedSpan &span);\n"),
                        "obs-span-leak"),
              1);
    EXPECT_EQ(countRule(lintSource("bench/b.cpp",
                                   "auto h = beginSpanImpl(\"x\");\n"),
                        "obs-span-leak"),
              1);
    // The tracer's own implementation owns the raw API.
    EXPECT_TRUE(lintSource("src/trace/span_tracer.cc",
                           "auto h = beginSpanImpl(\"x\");\n")
                    .empty());
}

TEST(LintRules, HotRmwCoversThePerQueryPathsOnly)
{
    const std::string src = "#include <atomic>\n"
                            "std::atomic<unsigned> hits{0};\n"
                            "void f() {\n"
                            "    hits.fetch_add(1);\n"
                            "    hits++;\n"
                            "    hits |= 2u;\n"
                            "    unsigned plain = 0;\n"
                            "    plain++;\n"
                            "}\n";
    for (const char *path : {"src/kernels/k.cc", "src/timing/t.cc",
                             "src/thermal/t.cc", "src/core/optimizer.cc"})
        EXPECT_EQ(countRule(lintSource(path, src), "atomics-hot-rmw"), 3)
            << path;
    // Off the per-query paths the same code is the atomics audit's
    // business, not this rule's; Counter itself lives in src/stats.
    for (const char *path : {"src/core/controller.cc", "src/stats/s.hh",
                             "src/exec/thread_pool.cc", "bench/b.cpp"})
        EXPECT_EQ(countRule(lintSource(path, src), "atomics-hot-rmw"), 0)
            << path;
}

TEST(LintRules, HotRmwIgnoresLoadsStoresAndCounterIncs)
{
    const auto diags = lintSource(
        "src/timing/t.cc",
        "#include <atomic>\n"
        "std::atomic<int> flag{0};\n"
        "int f(Counter &c) {\n"
        "    c.inc();\n"
        "    flag.store(1);\n"
        "    return flag.load() + (flag == 1);\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "atomics-hot-rmw"), 0);
}

TEST(LintRules, HeaderRulesOnlyApplyToHeaders)
{
    EXPECT_EQ(countRule(lintSource("src/x.cc", "int x;\n"),
                        "hyg-pragma-once"),
              0);
    EXPECT_EQ(countRule(lintSource("src/x.hh", "int x;\n"),
                        "hyg-pragma-once"),
              1);
    EXPECT_EQ(countRule(lintSource("src/x.hh", "#pragma once\nint x;\n"),
                        "hyg-pragma-once"),
              0);
}

TEST(LintRules, CatalogKnowsEveryReportedRule)
{
    for (const char *rule :
         {"det-entropy", "det-wallclock", "det-unordered", "det-shared-rng",
          "det-par-capture", "hyg-pragma-once", "hyg-using-namespace",
          "hyg-iostream", "obs-span-leak", "perf-hot-alloc",
          "lay-edge", "lay-cycle", "lay-module", "lay-unused-edge",
          "lay-manifest", "exc-contract", "atomics-relaxed",
          "atomics-hot-rmw", "lint-bad-suppression", "lint-unused-suppression"})
        EXPECT_TRUE(eval::lint::isKnownRule(rule)) << rule;
    EXPECT_FALSE(eval::lint::isKnownRule("no-such-rule"));
}

// ---------------------------------------------------------------------------
// Binary-level exit codes (the contract scripts/check.sh relies on)
// ---------------------------------------------------------------------------

int
runBinary(const std::string &args)
{
    const std::string cmd = std::string(EVAL_LINT_BIN) + " " + args +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WEXITSTATUS(status);
}

TEST(LintBinary, ExitCodes)
{
    EXPECT_EQ(runBinary("--root " + kFixtures + "/violating"), 1);
    EXPECT_EQ(runBinary("--root " + kFixtures + "/clean"), 0);
    EXPECT_EQ(runBinary("--root " + kFixtures + "/does-not-exist"), 2);
    EXPECT_EQ(runBinary("--no-such-flag"), 2);
    EXPECT_EQ(runBinary("--list-rules"), 0);
}

// ---------------------------------------------------------------------------
// Root normalization: `--root tree`, `--root tree/`, and a symlink to
// the tree must scope rules identically and report identical findings.
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
    // is anchored at the canonicalized root, not its spelling.
    EXPECT_EQ(plain, viaLink);
}

// ---------------------------------------------------------------------------
// The merge gate: the real tree lints clean.
// ---------------------------------------------------------------------------

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
