/** Tests for run provenance: manifest content, the config hash, and
 *  peak RSS. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>


#include "trace/manifest.hh"
#include "valid/json_value.hh"

namespace eval {
namespace {

/** The manifest is process-global; reset it around every test. */
class ManifestTest : public ::testing::Test
{
  protected:
    void SetUp() override { RunManifest::global().reset(); }
    void TearDown() override { RunManifest::global().reset(); }
};

TEST_F(ManifestTest, Fnv1aMatchesKnownVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST_F(ManifestTest, BuildIdentityIsNeverEmpty)
{
    EXPECT_NE(std::string(buildGitSha()), "");
    EXPECT_NE(std::string(buildType()), "");
    EXPECT_NE(std::string(buildCompiler()), "");
    EXPECT_NE(std::string(buildSanitizer()), "");
    EXPECT_GT(peakRssKb(), 0);
}

TEST_F(ManifestTest, JsonCarriesEverythingThatWasSet)
{
    RunManifest &m = RunManifest::global();
    m.setTool("manifest_test");
    m.setSeed(12345);
    m.setThreads(3);
    m.setConfig("seed=12345;chips=2");
    m.addStage("warmup", 0.25);
    m.addStage("run", 1.5);
    m.setOutput("stats", "stats.json");
    m.setOutput("stats", "stats2.json"); // overwrite, not duplicate

    const JsonValue doc = JsonValue::parse(m.json());
    EXPECT_EQ(doc.at("schema_version").asInt(), 1);
    EXPECT_EQ(doc.at("tool").asString(), "manifest_test");
    EXPECT_EQ(doc.at("build").at("type").asString(), buildType());
    EXPECT_EQ(doc.at("run").at("seed").asInt(), 12345);
    EXPECT_EQ(doc.at("run").at("threads").asInt(), 3);
    EXPECT_EQ(doc.at("run").at("config").asString(),
              "seed=12345;chips=2");

    // config_hash is the FNV-1a of the fingerprint, rendered 0x%016llx.
    char expect[32];
    std::snprintf(expect, sizeof expect, "0x%016llx",
                  static_cast<unsigned long long>(
                      fnv1a("seed=12345;chips=2")));
    EXPECT_EQ(doc.at("run").at("config_hash").asString(), expect);

    ASSERT_EQ(doc.at("stages").size(), 2u);
    EXPECT_EQ(doc.at("stages").asArray()[1].at("name").asString(),
              "run");
    EXPECT_DOUBLE_EQ(
        doc.at("stages").asArray()[1].at("wall_s").asDouble(), 1.5);
    ASSERT_EQ(doc.at("outputs").size(), 1u);
    EXPECT_EQ(doc.at("outputs").at("stats").asString(), "stats2.json");
    EXPECT_GT(doc.at("peak_rss_kb").asInt(), 0);
}

TEST_F(ManifestTest, ResetForgetsRunStateButNotBuildIdentity)
{
    RunManifest &m = RunManifest::global();
    m.setTool("before");
    m.addStage("s", 1.0);
    m.reset();
    const JsonValue doc = JsonValue::parse(m.json());
    EXPECT_NE(doc.at("tool").asString(), "before");
    EXPECT_EQ(doc.at("stages").size(), 0u);
    EXPECT_EQ(doc.at("git_sha").asString(), buildGitSha());
}

TEST_F(ManifestTest, WriteProducesAParsableFile)
{
    RunManifest &m = RunManifest::global();
    m.setTool("manifest_test");
    const std::string path = ::testing::TempDir() + "manifest_test.json";
    ASSERT_TRUE(m.write(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(JsonValue::parse(os.str()).at("tool").asString(),
              "manifest_test");
    std::remove(path.c_str());
    EXPECT_FALSE(m.write("/nonexistent-dir/manifest.json"));
}

TEST(PeakRssTest, CoversOwnAllocation)
{
    // Touch ~64 MiB in this process and require the reported peak to
    // cover it.
    const long before = peakRssKb();
    ASSERT_GT(before, 0);

    constexpr std::size_t kBytes = 64u << 20;
    char *block = static_cast<char *>(std::malloc(kBytes));
    ASSERT_NE(block, nullptr);
    // Volatile stores to every page: the optimizer may not elide
    // them, so each page is really resident.
    volatile char *pages = block;
    for (std::size_t i = 0; i < kBytes; i += 4096)
        pages[i] = 0x5a;

    const long after = peakRssKb();
    std::free(block);
    EXPECT_GE(after, static_cast<long>(kBytes >> 10));
    EXPECT_GE(after, before);
}

} // namespace
} // namespace eval
