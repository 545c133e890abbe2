/**
 * Property-based fuzz tests for the environment config parsers and
 * the argument parser: random valid inputs parse losslessly, random
 * hostile inputs never crash (the env parsers fall back; the arg
 * parser exits through EVAL_FATAL — a defined, testable path).
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/environment.hh"
#include "util/arg_parser.hh"
#include "util/config.hh"
#include "util/random.hh"

using namespace eval;

namespace {

constexpr const char *kVar = "EVAL_FUZZ_TEST_VAR";

class EnvGuard : public ::testing::Test
{
  protected:
    void TearDown() override { ::unsetenv(kVar); }

    void
    setVar(const std::string &value)
    {
        ::setenv(kVar, value.c_str(), 1);
    }
};

using ConfigFuzz = EnvGuard;

std::string
randomGarbage(Rng &rng, std::size_t maxLen)
{
    const std::size_t len = rng.uniformInt(maxLen + 1);
    std::string s;
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
        // Printable ASCII plus separators the parsers care about.
        static const char pool[] =
            "0123456789aAzZ+-.,eE xX_=\"\\/#!\t";
        s.push_back(pool[rng.uniformInt(sizeof(pool) - 1)]);
    }
    return s;
}

std::string
joinCsv(const std::vector<std::string> &items)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ",";
        out += items[i];
    }
    return out;
}

} // namespace

TEST_F(ConfigFuzz, EnvIntNeverCrashesAndHonestFallback)
{
    Rng rng(0xC0FFEE);
    for (int i = 0; i < 2000; ++i) {
        setVar(randomGarbage(rng, 24));
        (void)envInt(kVar, -1);
        (void)envDouble(kVar, -1.0);
        (void)envBool(kVar, false);
        (void)envString(kVar, "");
    }
    // Valid values round-trip exactly.
    for (int i = 0; i < 500; ++i) {
        const std::int64_t v =
            static_cast<std::int64_t>(rng.next() >> 1) *
            (rng.uniformInt(2) ? 1 : -1);
        setVar(std::to_string(v));
        EXPECT_EQ(envInt(kVar, 0), v);
    }
}

TEST_F(ConfigFuzz, SplitCsvNeverCrashesAndIsIdempotent)
{
    Rng rng(0xBEEF);
    for (int i = 0; i < 2000; ++i) {
        const std::string input = randomGarbage(rng, 48);
        const std::vector<std::string> once = splitCsvList(input);
        // Tokens are trimmed and non-empty.
        for (const std::string &t : once) {
            EXPECT_FALSE(t.empty());
            EXPECT_NE(t.front(), ' ');
            EXPECT_NE(t.back(), ' ');
        }
        // split(join(split(x))) == split(x): parse-print-parse fixpoint
        // for every token that survives (commas inside tokens cannot
        // occur by construction of the split).
        const std::vector<std::string> twice =
            splitCsvList(joinCsv(once));
        EXPECT_EQ(twice, once) << "input: " << input;
    }
}

TEST_F(ConfigFuzz, ExperimentConfigFromEnvToleratesGarbage)
{
    Rng rng(0xFEED);
    for (int i = 0; i < 200; ++i) {
        ::setenv("EVAL_CHIPS", randomGarbage(rng, 12).c_str(), 1);
        ::setenv("EVAL_SEED", randomGarbage(rng, 12).c_str(), 1);
        ::setenv("EVAL_APPS", randomGarbage(rng, 32).c_str(), 1);
        ::setenv("EVAL_FAST", randomGarbage(rng, 4).c_str(), 1);
        const ExperimentConfig cfg = ExperimentConfig::fromEnv();
        // Whatever the garbage, the config stays usable.
        EXPECT_GE(cfg.chips, 1);
    }
    ::unsetenv("EVAL_CHIPS");
    ::unsetenv("EVAL_SEED");
    ::unsetenv("EVAL_APPS");
    ::unsetenv("EVAL_FAST");
}

TEST(ArgParserFuzz, WellFormedOptionsRoundTrip)
{
    Rng rng(0xABCD);
    for (int i = 0; i < 500; ++i) {
        const std::int64_t value =
            static_cast<std::int64_t>(rng.uniformInt(1000000));
        const std::string valueStr = std::to_string(value);
        const std::string eq = "--key=" + valueStr;
        const char *argv[] = {"prog",     "--flag", eq.c_str(),
                              "--other",  valueStr.c_str(), "pos"};
        ArgParser args(6, argv);
        EXPECT_TRUE(args.getBool("flag"));
        EXPECT_EQ(args.getInt("key", -1), value);
        EXPECT_EQ(args.getInt("other", -1), value);
        ASSERT_EQ(args.positional().size(), 1u);
        EXPECT_EQ(args.positional()[0], "pos");
        EXPECT_TRUE(args.unusedKeys().empty());
    }
}

TEST(ArgParserFuzz, MalformedOptionExitsCleanly)
{
    // "--" alone (empty option name) and a non-numeric value for a
    // numeric option are user errors: the parser must exit through
    // EVAL_FATAL, never crash or misparse.
    const char *emptyName[] = {"prog", "--"};
    EXPECT_EXIT(ArgParser(2, emptyName), ::testing::ExitedWithCode(1),
                "empty option name");

    const char *badInt[] = {"prog", "--chips", "many"};
    EXPECT_EXIT(
        {
            ArgParser args(3, badInt);
            (void)args.getInt("chips", 0);
        },
        ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(ArgParserFuzz, RandomArgvNeverCorruptsMemory)
{
    Rng rng(0x5EED5);
    for (int i = 0; i < 300; ++i) {
        // Build a random argv of positional-looking tokens (no leading
        // "--" so the parser cannot hit its fatal path) and verify the
        // parse is total and faithful.
        std::vector<std::string> words;
        const std::size_t n = 1 + rng.uniformInt(6);
        for (std::size_t w = 0; w < n; ++w) {
            std::string token = randomGarbage(rng, 16);
            while (token.rfind("--", 0) == 0)
                token.erase(0, 1);
            if (token.empty())
                token.push_back('x');
            words.push_back(std::move(token));
        }
        std::vector<const char *> argv{"prog"};
        for (const std::string &w : words)
            argv.push_back(w.c_str());
        ArgParser args(static_cast<int>(argv.size()), argv.data());
        EXPECT_EQ(args.positional().size(), words.size());
    }
}
