/**
 * @file
 * Tests for the layering-manifest parser (tools/lint/layers.toml):
 * the TOML subset it accepts, the structural errors it rejects (so
 * the manifest cannot silently half-load), and the DAG check over the
 * declared `uses` edges.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "layers.hh"

namespace {

using eval::lint::checkLayerDag;
using eval::lint::LayersManifest;
using eval::lint::ManifestError;
using eval::lint::parseLayers;

LayersManifest
parseOk(const std::string &text)
{
    std::vector<ManifestError> errors;
    const LayersManifest m = parseLayers(text, errors);
    EXPECT_TRUE(errors.empty())
        << (errors.empty() ? "" : errors.front().message);
    return m;
}

std::vector<ManifestError>
parseErrors(const std::string &text)
{
    std::vector<ManifestError> errors;
    (void)parseLayers(text, errors);
    return errors;
}

TEST(LintLayers, ParsesModulesAndUses)
{
    const LayersManifest m = parseOk(
        "# comment\n"
        "[modules.util]\n"
        "uses = []\n"
        "\n"
        "[modules.core]\n"
        "uses = [\n"
        "  \"util\", \"timing\",\n"
        "]\n"
        "\n"
        "[modules.timing]\n"
        "uses = [\"util\"]\n"
        "\n"
        "[modules.cmp]\n"
        "uses = []\n");
    ASSERT_EQ(m.modules.size(), 4u);

    const auto &core = m.modules.at("core");
    ASSERT_EQ(core.uses.size(), 2u);
    EXPECT_EQ(core.uses[0].to, "util");
    EXPECT_EQ(core.uses[1].to, "timing");
}

TEST(LintLayers, EdgeLinesPointAtTheDeclaration)
{
    const LayersManifest m = parseOk(
        "[modules.a]\n"
        "uses = [\n"
        "  \"b\",\n"
        "]\n"
        "[modules.b]\n"
        "uses = []\n");
    // Edges anchor at their `uses = [` key line, so lay-unused-edge
    // findings land on the declaration even for multi-line arrays.
    EXPECT_EQ(m.modules.at("a").uses.at(0).line, 2);
    EXPECT_EQ(m.modules.at("a").line, 1);
    EXPECT_EQ(m.modules.at("b").line, 5);
}

TEST(LintLayers, RejectsUnknownSyntax)
{
    EXPECT_FALSE(parseErrors("[modules.a]\nuses = 3\n").empty());
    EXPECT_FALSE(parseErrors("not a key line\n").empty());
    EXPECT_FALSE(parseErrors("[modules.a]\ncolor = [\"red\"]\n").empty());
    // Neither exception contracts nor per-file edge exceptions are
    // part of the manifest.
    EXPECT_FALSE(parseErrors("[modules.a]\nthrows = [\"E\"]\n").empty());
    EXPECT_FALSE(parseErrors("[exceptions]\nedges = []\n").empty());
    EXPECT_FALSE(parseErrors("uses = [\"a\"]\n").empty()); // outside table
    EXPECT_FALSE(
        parseErrors("[modules.a]\nuses = []\n[modules.a]\nuses = []\n")
            .empty()); // duplicate table
}

TEST(LintLayers, RejectsUsesCycles)
{
    const auto errors = parseErrors(
        "[modules.a]\n"
        "uses = [\"b\"]\n"
        "[modules.b]\n"
        "uses = [\"c\"]\n"
        "[modules.c]\n"
        "uses = [\"a\"]\n");
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().message.find("cycle"), std::string::npos);
}

TEST(LintLayers, DagCheckAcceptsADag)
{
    std::vector<ManifestError> errors;
    const LayersManifest m = parseLayers(
        "[modules.a]\n"
        "uses = [\"b\", \"c\"]\n"
        "[modules.b]\n"
        "uses = [\"c\"]\n"
        "[modules.c]\n"
        "uses = []\n",
        errors);
    EXPECT_TRUE(errors.empty());
    checkLayerDag(m, errors);
    EXPECT_TRUE(errors.empty());
}

} // namespace
