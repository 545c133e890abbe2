/** Tests for environment-driven configuration (util/config.hh and
 *  ExperimentConfig::fromEnv). */

#include <cstdlib>

#include <gtest/gtest.h>

#include "core/environment.hh"
#include "util/config.hh"

namespace eval {
namespace {

class ConfigTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        unsetenv("EVAL_TEST_INT");
        unsetenv("EVAL_TEST_DOUBLE");
        unsetenv("EVAL_TEST_STR");
        unsetenv("EVAL_TEST_BOOL");
        unsetenv("EVAL_CHIPS");
        unsetenv("EVAL_SEED");
        unsetenv("EVAL_FAST");
        unsetenv("EVAL_APPS");
    }
};

TEST_F(ConfigTest, IntFallbackAndParse)
{
    EXPECT_EQ(envInt("EVAL_TEST_INT", 5), 5);
    setenv("EVAL_TEST_INT", "42", 1);
    EXPECT_EQ(envInt("EVAL_TEST_INT", 5), 42);
    setenv("EVAL_TEST_INT", "not-a-number", 1);
    EXPECT_EQ(envInt("EVAL_TEST_INT", 5), 5);
}

TEST_F(ConfigTest, DoubleParse)
{
    EXPECT_DOUBLE_EQ(envDouble("EVAL_TEST_DOUBLE", 1.5), 1.5);
    setenv("EVAL_TEST_DOUBLE", "2.25", 1);
    EXPECT_DOUBLE_EQ(envDouble("EVAL_TEST_DOUBLE", 1.5), 2.25);
}

TEST_F(ConfigTest, StringAndBool)
{
    EXPECT_EQ(envString("EVAL_TEST_STR", "dflt"), "dflt");
    setenv("EVAL_TEST_STR", "abc", 1);
    EXPECT_EQ(envString("EVAL_TEST_STR", "dflt"), "abc");

    EXPECT_FALSE(envBool("EVAL_TEST_BOOL", false));
    for (const char *v : {"1", "true", "yes", "on"}) {
        setenv("EVAL_TEST_BOOL", v, 1);
        EXPECT_TRUE(envBool("EVAL_TEST_BOOL", false)) << v;
    }
    setenv("EVAL_TEST_BOOL", "0", 1);
    EXPECT_FALSE(envBool("EVAL_TEST_BOOL", true));
}

TEST_F(ConfigTest, SplitCsvListTrims)
{
    const auto v = splitCsvList(" a, b ,c,, d ");
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "b");
    EXPECT_EQ(v[2], "c");
    EXPECT_EQ(v[3], "d");
    EXPECT_TRUE(splitCsvList("").empty());
}

TEST_F(ConfigTest, ExperimentConfigFromEnv)
{
    setenv("EVAL_CHIPS", "7", 1);
    setenv("EVAL_SEED", "99", 1);
    setenv("EVAL_FAST", "1", 1);
    setenv("EVAL_APPS", "swim,mcf", 1);
    const ExperimentConfig cfg = ExperimentConfig::fromEnv();
    EXPECT_EQ(cfg.chips, 7);
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_EQ(cfg.simInsts, 60000u);   // EVAL_FAST's clamp
    ASSERT_EQ(cfg.apps.size(), 2u);
    EXPECT_EQ(cfg.apps[0], "swim");
}

TEST_F(ConfigTest, ExperimentConfigClampsChips)
{
    setenv("EVAL_CHIPS", "-3", 1);
    EXPECT_EQ(ExperimentConfig::fromEnv().chips, 1);
    setenv("EVAL_CHIPS", "20", 1);
    setenv("EVAL_FAST", "1", 1);
    EXPECT_EQ(ExperimentConfig::fromEnv().chips, 8);
}

} // namespace
} // namespace eval
