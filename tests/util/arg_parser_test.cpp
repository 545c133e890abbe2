/** Tests for the command-line argument parser. */

#include <gtest/gtest.h>

#include "util/arg_parser.hh"

namespace eval {
namespace {

ArgParser
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, PositionalArguments)
{
    const ArgParser p = parse({"run", "extra"});
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "run");
    EXPECT_EQ(p.positional()[1], "extra");
}

TEST(ArgParser, SpaceSeparatedValue)
{
    const ArgParser p = parse({"--app", "swim"});
    EXPECT_TRUE(p.has("app"));
    EXPECT_EQ(p.getString("app", "x"), "swim");
}

TEST(ArgParser, EqualsSeparatedValue)
{
    const ArgParser p = parse({"--chips=12"});
    EXPECT_EQ(p.getInt("chips", 0), 12);
}

TEST(ArgParser, BareFlagIsTrue)
{
    const ArgParser p = parse({"--fast"});
    EXPECT_TRUE(p.getBool("fast"));
    EXPECT_FALSE(p.getBool("slow"));
}

TEST(ArgParser, FlagFollowedByOption)
{
    const ArgParser p = parse({"--fast", "--app", "mcf"});
    EXPECT_TRUE(p.getBool("fast"));
    EXPECT_EQ(p.getString("app", ""), "mcf");
}

TEST(ArgParser, NumericParsing)
{
    const ArgParser p = parse({"--seed", "42"});
    EXPECT_EQ(p.getInt("seed", 0), 42);
    EXPECT_EQ(p.getInt("missing", 7), 7);
}

TEST(ArgParser, MalformedIntegerIsFatal)
{
    EXPECT_DEATH(
        {
            const ArgParser p = parse({"--chips", "twelve"});
            p.getInt("chips", 0);
        },
        "expects an integer");
}

TEST(ArgParser, UnusedKeysDetected)
{
    const ArgParser p = parse({"--app", "swim", "--typo", "1"});
    (void)p.getString("app", "");
    const auto unused = p.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "typo");
}

TEST(ArgParser, MixedPositionalAndOptions)
{
    const ArgParser p = parse({"sweep", "--chips", "3", "tail"});
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "sweep");
    EXPECT_EQ(p.positional()[1], "tail");
    EXPECT_EQ(p.getInt("chips", 0), 3);
}

} // namespace
} // namespace eval
