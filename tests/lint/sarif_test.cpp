/**
 * @file
 * Golden-shape tests for the SARIF 2.1.0 exporter: the document is
 * valid JSON (round-tripped through the repo's strict parser) and
 * carries the fields the SARIF 2.1.0 schema requires on this shape —
 * $schema/version, tool.driver with the full rule catalog, results
 * with ruleId/ruleIndex/message/locations, and originalUriBaseIds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint.hh"
#include "sarif.hh"
#include "valid/json_value.hh"

namespace {

using eval::JsonValue;
using eval::lint::Diagnostic;
using eval::lint::ruleCatalog;
using eval::lint::toSarif;

const std::vector<Diagnostic> kDiags = {
    {"src/core/x.cc", 12, "det-entropy", "rand() on a model path"},
    {"layers.toml", 3, "lay-unused-edge", "stale edge"},
};

TEST(LintSarif, DocumentShapeMatchesSarif210)
{
    const JsonValue doc = JsonValue::parse(
        toSarif(kDiags, "file:///repo/"));

    EXPECT_EQ(doc.at("$schema").asString(),
              "https://json.schemastore.org/sarif-2.1.0.json");
    EXPECT_EQ(doc.at("version").asString(), "2.1.0");

    const auto &runs = doc.at("runs").asArray();
    ASSERT_EQ(runs.size(), 1u);
    const JsonValue &run = runs[0];

    const JsonValue &driver = run.at("tool").at("driver");
    EXPECT_EQ(driver.at("name").asString(), "eval-lint");
    EXPECT_TRUE(driver.has("informationUri"));

    EXPECT_EQ(run.at("originalUriBaseIds").at("SRCROOT").at("uri")
                  .asString(),
              "file:///repo/");

    const auto &results = run.at("results").asArray();
    ASSERT_EQ(results.size(), kDiags.size());
    const JsonValue &r0 = results[0];
    EXPECT_EQ(r0.at("ruleId").asString(), "det-entropy");
    EXPECT_EQ(r0.at("level").asString(), "error");
    EXPECT_EQ(r0.at("message").at("text").asString(),
              "rand() on a model path");

    const JsonValue &loc = r0.at("locations").asArray()[0];
    const JsonValue &phys = loc.at("physicalLocation");
    EXPECT_EQ(phys.at("artifactLocation").at("uri").asString(),
              "src/core/x.cc");
    EXPECT_EQ(phys.at("artifactLocation").at("uriBaseId").asString(),
              "SRCROOT");
    EXPECT_EQ(phys.at("region").at("startLine").asInt(), 12);
}

TEST(LintSarif, RulesArrayMirrorsTheCatalogInOrder)
{
    const JsonValue doc =
        JsonValue::parse(toSarif({}, "file:///repo/"));
    const auto &rules =
        doc.at("runs").asArray()[0].at("tool").at("driver").at("rules")
            .asArray();
    const auto &catalog = ruleCatalog();
    ASSERT_EQ(rules.size(), catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        EXPECT_EQ(rules[i].at("id").asString(), catalog[i].id);
        EXPECT_FALSE(rules[i].at("shortDescription").at("text")
                         .asString()
                         .empty());
    }
}

TEST(LintSarif, RuleIndexPointsIntoTheRulesArray)
{
    const JsonValue doc = JsonValue::parse(
        toSarif(kDiags, "file:///repo/"));
    const JsonValue &run = doc.at("runs").asArray()[0];
    const auto &rules =
        run.at("tool").at("driver").at("rules").asArray();
    for (const JsonValue &result : run.at("results").asArray()) {
        const auto idx =
            static_cast<std::size_t>(result.at("ruleIndex").asInt());
        ASSERT_LT(idx, rules.size());
        EXPECT_EQ(rules[idx].at("id").asString(),
                  result.at("ruleId").asString());
    }
}

TEST(LintSarif, NoRootUriOmitsUriBaseIds)
{
    const JsonValue doc = JsonValue::parse(toSarif(kDiags, ""));
    const JsonValue &run = doc.at("runs").asArray()[0];
    EXPECT_FALSE(run.has("originalUriBaseIds"));
    const JsonValue &artifact = run.at("results").asArray()[0]
                                    .at("locations").asArray()[0]
                                    .at("physicalLocation")
                                    .at("artifactLocation");
    EXPECT_FALSE(artifact.has("uriBaseId"));
}

TEST(LintSarif, MessagesWithSpecialCharactersStayValidJson)
{
    const std::vector<Diagnostic> diags = {
        {"src/a b.cc", 0, "det-entropy",
         "quote \" backslash \\ newline \n tab \t control \x01 done"},
    };
    const JsonValue doc = JsonValue::parse(toSarif(diags, ""));
    const JsonValue &r =
        doc.at("runs").asArray()[0].at("results").asArray()[0];
    EXPECT_EQ(r.at("message").at("text").asString(),
              "quote \" backslash \\ newline \n tab \t control \x01 done");
    // line 0 is clamped to the schema's minimum of 1.
    EXPECT_EQ(r.at("locations").asArray()[0].at("physicalLocation")
                  .at("region").at("startLine").asInt(),
              1);
}

} // namespace
