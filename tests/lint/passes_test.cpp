/**
 * @file
 * Tests for phase 2 of the semantic analyzer: runProjectPasses() over
 * synthetic FileIndex sets — layering edges, the relaxed-atomics
 * audit, and the determinism data-flow check on parallel regions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hh"
#include "passes.hh"

namespace {

using eval::lint::buildFileIndex;
using eval::lint::Diagnostic;
using eval::lint::LayersManifest;
using eval::lint::parseLayers;
using eval::lint::ProjectIndex;
using eval::lint::runProjectPasses;

int
countRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    return static_cast<int>(
        std::count_if(diags.begin(), diags.end(),
                      [&](const Diagnostic &d) { return d.rule == rule; }));
}

LayersManifest
manifest(const std::string &text)
{
    std::vector<eval::lint::ManifestError> errors;
    LayersManifest m = parseLayers(text, errors);
    EXPECT_TRUE(errors.empty())
        << (errors.empty() ? "" : errors.front().message);
    return m;
}

std::vector<Diagnostic>
run(const ProjectIndex &index, const LayersManifest &m)
{
    return runProjectPasses(index, m, {});
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

TEST(LintPasses, UndeclaredCrossModuleIncludeIsLayEdge)
{
    ProjectIndex index;
    index.files.push_back(buildFileIndex(
        "src/stats/x.cc", "#include \"thermal/solver.hh\"\n"));
    index.files.push_back(
        buildFileIndex("src/thermal/solver.hh", "#pragma once\n"));
    const auto diags = run(
        index, manifest("[modules.stats]\nuses = []\n"
                        "[modules.thermal]\nuses = []\n"));
    ASSERT_EQ(countRule(diags, "lay-edge"), 1);
    const auto it =
        std::find_if(diags.begin(), diags.end(), [](const Diagnostic &d) {
            return d.rule == "lay-edge";
        });
    EXPECT_EQ(it->file, "src/stats/x.cc");
    EXPECT_EQ(it->line, 1);
    EXPECT_NE(it->message.find("stats -> thermal"), std::string::npos);
}

TEST(LintPasses, DeclaredAndExercisedEdgeIsSilent)
{
    ProjectIndex index;
    index.files.push_back(buildFileIndex(
        "src/core/x.cc", "#include \"util/math.hh\"\n"));
    index.files.push_back(buildFileIndex("src/util/y.cc", ""));
    const auto diags = run(index, manifest("[modules.core]\nuses = [\"util\"]\n"
                                           "[modules.util]\nuses = []\n"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintPasses, SameModuleAndNonModuleIncludesAreSilent)
{
    ProjectIndex index;
    index.files.push_back(buildFileIndex(
        "src/core/x.cc",
        "#include \"core/other.hh\"\n"   // same module
        "#include \"helper.hh\"\n"       // same directory
        "#include <vector>\n"            // angled
        "#include \"gtest/gtest.h\"\n")); // not a declared module
    const auto diags =
        run(index, manifest("[modules.core]\nuses = []\n"));
    EXPECT_EQ(countRule(diags, "lay-edge"), 0);
}

TEST(LintPasses, UndeclaredModuleIsLayModule)
{
    ProjectIndex index;
    index.files.push_back(buildFileIndex("src/rogue/x.cc", "int x;\n"));
    const auto diags =
        run(index, manifest("[modules.core]\nuses = []\n"));
    EXPECT_EQ(countRule(diags, "lay-module"), 1);
}

TEST(LintPasses, StaleManifestEntriesAreLayUnusedEdge)
{
    ProjectIndex index;
    index.files.push_back(buildFileIndex("src/core/x.cc", "int x;\n"));
    // The unexercised core -> util edge and the fileless util table
    // are both stale.
    const auto diags =
        run(index, manifest("[modules.core]\nuses = [\"util\"]\n"
                            "[modules.util]\nuses = []\n"));
    EXPECT_EQ(countRule(diags, "lay-unused-edge"), 2);
}

TEST(LintPasses, ManifestErrorsBecomeLayManifestFindings)
{
    LayersManifest unloaded;
    unloaded.path = "tools/lint/layers.toml";
    const auto diags = runProjectPasses(
        ProjectIndex{}, unloaded, {{7, "unknown module key 'color'"}});
    ASSERT_EQ(countRule(diags, "lay-manifest"), 1);
    EXPECT_EQ(diags[0].file, "tools/lint/layers.toml");
    EXPECT_EQ(diags[0].line, 7);
    EXPECT_NE(diags[0].message.find("unknown module key"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Atomics audit
// ---------------------------------------------------------------------------

TEST(LintPasses, RelaxedAtomicNeedsAllowanceOrCountersOnly)
{
    const std::string body =
        "void t(std::atomic<int> &c) {\n"
        "    c.fetch_add(1, std::memory_order_relaxed);\n"
        "    c.load(std::memory_order_acquire);\n" // ordered: fine
        "}\n";
    ProjectIndex bare;
    bare.files.push_back(buildFileIndex("src/stats/x.cc", body));
    EXPECT_EQ(
        countRule(run(bare, LayersManifest{}), "atomics-relaxed"),
        1);

    ProjectIndex marked;
    marked.files.push_back(buildFileIndex(
        "src/stats/x.cc",
        "// eval-lint: counters-only monotone ticks, test fixture\n" +
            body));
    EXPECT_EQ(
        countRule(run(marked, LayersManifest{}), "atomics-relaxed"),
        0);

    // Outside src/ the audit does not apply (bench and tests measure,
    // they are not the model).
    ProjectIndex bench;
    bench.files.push_back(buildFileIndex("bench/x.cpp", body));
    EXPECT_EQ(
        countRule(run(bench, LayersManifest{}), "atomics-relaxed"),
        0);
}

// ---------------------------------------------------------------------------
// Determinism data-flow
// ---------------------------------------------------------------------------

std::vector<Diagnostic>
runFlow(const std::string &body)
{
    ProjectIndex index;
    index.files.push_back(buildFileIndex("src/core/x.cc", body));
    return run(index, LayersManifest{});
}

TEST(LintPasses, ByRefMutationInParallelBodyIsFlagged)
{
    const auto diags = runFlow(
        "void f(std::vector<double> &out, std::size_t n) {\n"
        "    parallelFor(0, n, 1, [&](std::size_t i) {\n"
        "        out.push_back(static_cast<double>(i));\n"
        "    });\n"
        "}\n");
    ASSERT_EQ(countRule(diags, "det-par-capture"), 1);
    EXPECT_EQ(diags[0].line, 3);
    EXPECT_NE(diags[0].message.find("'out'"), std::string::npos);
}

TEST(LintPasses, MemberChainMutationFlagsTheRootCapture)
{
    // runs.base.resize(...) and runs.all->clear() mutate `runs`, the
    // captured object.
    const auto diags = runFlow(
        "void f(Runs &runs, std::size_t n) {\n"
        "    parallelFor(0, n, 1, [&runs](std::size_t i) {\n"
        "        runs.base.resize(i);\n"
        "        runs.all->clear();\n"
        "    });\n"
        "}\n");
    ASSERT_EQ(countRule(diags, "det-par-capture"), 2);
    EXPECT_NE(diags[0].message.find("'runs'"), std::string::npos);
    EXPECT_NE(diags[1].message.find("'runs'"), std::string::npos);
}

TEST(LintPasses, SharedScalarAccumulationIsFlagged)
{
    const auto diags = runFlow(
        "void f(double &sum, std::size_t n) {\n"
        "    parallelFor(0, n, 1, [&](std::size_t i) {\n"
        "        sum += static_cast<double>(i);\n"
        "    });\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-par-capture"), 1);
}

TEST(LintPasses, SlotWritesLocalsAndCallResultsAreSilent)
{
    const auto diags = runFlow(
        "void f(std::vector<double> &out, std::size_t n) {\n"
        "    parallelFor(0, n, 1, [&](std::size_t i) {\n"
        "        std::vector<double> scratch;\n"
        "        scratch.push_back(1.0);\n"     // local: fine
        "        double acc = 0.0;\n"
        "        acc += scratch.front();\n"     // local: fine
        "        lookup(i).push_back(acc);\n"   // call-result root: fine
        "        out[i] = acc;\n"               // slot write: fine
        "        out[i].clear();\n"             // slot mutation: fine
        "    });\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-par-capture"), 0);
}

TEST(LintPasses, ByValueCaptureIsSilent)
{
    const auto diags = runFlow(
        "void f(std::vector<double> out, std::size_t n) {\n"
        "    parallelFor(0, n, 1, [out](std::size_t i) mutable {\n"
        "        out.push_back(static_cast<double>(i));\n"
        "    });\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "det-par-capture"), 0);
}

} // namespace
