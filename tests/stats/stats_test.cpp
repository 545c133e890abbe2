/**
 * @file
 * Unit tests for the stats subsystem: counter semantics, registry
 * registration rules, the JSON snapshot, the decision trace ring, and
 * the telemetry exit flush.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stats/stats.hh"
#include "stats/telemetry.hh"
#include "util/logging.hh"

using namespace eval;

namespace {

/**
 * Minimal JSON reader for the round-trip test: validates syntax and
 * records every "group.leaf"-style path to a scalar.  Supports the
 * subset the registry emits (objects, strings, numbers, null).
 */
class MiniJsonReader
{
  public:
    bool
    parse(const std::string &text)
    {
        text_ = &text;
        pos_ = 0;
        if (!parseValue(""))
            return false;
        skipWs();
        return pos_ == text.size();
    }

    std::string
    scalar(const std::string &path) const
    {
        for (const auto &[p, v] : scalars_) {
            if (p == path)
                return v;
        }
        return "";
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_->size() &&
               std::isspace(static_cast<unsigned char>((*text_)[pos_]))) {
            ++pos_;
        }
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (pos_ >= text_->size() || (*text_)[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_->size() && (*text_)[pos_] != '"')
            out.push_back((*text_)[pos_++]);
        if (pos_ >= text_->size())
            return false;
        ++pos_;   // closing quote
        return true;
    }

    bool
    parseValue(const std::string &path)
    {
        skipWs();
        if (pos_ >= text_->size())
            return false;
        const char c = (*text_)[pos_];
        if (c == '{')
            return parseObject(path);
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            scalars_.emplace_back(path, s);
            return true;
        }
        // number / null / bool token
        std::string token;
        while (pos_ < text_->size() &&
               (std::isalnum(static_cast<unsigned char>((*text_)[pos_])) ||
                (*text_)[pos_] == '-' || (*text_)[pos_] == '+' ||
                (*text_)[pos_] == '.' || (*text_)[pos_] == 'e' ||
                (*text_)[pos_] == 'E')) {
            token.push_back((*text_)[pos_++]);
        }
        if (token.empty())
            return false;
        scalars_.emplace_back(path, token);
        return true;
    }

    bool
    parseObject(const std::string &path)
    {
        ++pos_;   // '{'
        skipWs();
        if (pos_ < text_->size() && (*text_)[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_->size() || (*text_)[pos_] != ':')
                return false;
            ++pos_;
            if (!parseValue(path.empty() ? key : path + "." + key))
                return false;
            skipWs();
            if (pos_ >= text_->size())
                return false;
            if ((*text_)[pos_] == ',') {
                ++pos_;
                continue;
            }
            if ((*text_)[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string *text_ = nullptr;
    std::size_t pos_ = 0;
    std::vector<std::pair<std::string, std::string>> scalars_;
};

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

TEST(CounterTest, IncrementAndReset)
{
    StatRegistry reg;
    Counter &c = reg.counter("core.retunes");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    // Idempotent registration: same name, same instrument.
    EXPECT_EQ(&reg.counter("core.retunes"), &c);
    EXPECT_EQ(reg.size(), 1u);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);      // reference survives reset
    EXPECT_TRUE(reg.has("core.retunes"));
}

TEST(StatRegistryDeathTest, HierarchyClashIsFatal)
{
    StatRegistry reg;
    reg.counter("a.b");
    // "a.b" is a leaf; it cannot also be a group.
    EXPECT_EXIT(reg.counter("a.b.c"), ::testing::ExitedWithCode(1),
                "conflicts with the hierarchy");
    EXPECT_EXIT(reg.counter("a"), ::testing::ExitedWithCode(1),
                "conflicts with the hierarchy");
}

TEST(StatRegistryTest, JsonRoundTrip)
{
    StatRegistry reg;
    reg.counter("controller.adaptations").inc(7);
    reg.counter("chip.thermal.iterations").inc(3);

    const std::string text = reg.json();
    MiniJsonReader json;
    ASSERT_TRUE(json.parse(text)) << text;

    EXPECT_EQ(json.scalar("controller.adaptations.type"), "counter");
    EXPECT_EQ(json.scalar("controller.adaptations.value"), "7");
    EXPECT_EQ(json.scalar("chip.thermal.iterations.type"), "counter");
    EXPECT_EQ(json.scalar("chip.thermal.iterations.value"), "3");
}

/** In a death-test child: arm telemetry with a stats file at
 *  @p path and bump one counter, so the file has content to write. */
void
startStatsTelemetry(const std::string &path)
{
    TelemetryPaths paths;
    paths.stats = path;
    startTelemetry("stats_test", paths);
    StatRegistry::global().counter("test.died_mid_run").inc();
}

/** The stats file the child left behind ("" if none), removed. */
std::string
takeStatsFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    std::remove(path.c_str());
    return os.str();
}

TEST(TelemetryDeathTest, FatalExitStillWritesStats)
{
    const std::string path = testing::TempDir() + "stats_test_fatal.json";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            startStatsTelemetry(path);
            EVAL_FATAL("dying mid-run");
        },
        ::testing::ExitedWithCode(1), "dying mid-run");
    EXPECT_NE(takeStatsFile(path).find("died_mid_run"), std::string::npos);
}

TEST(TelemetryDeathTest, HierarchyClashStillWritesStats)
{
    // The clash is found under the registry's lock, and the exit flush
    // dumps that same registry: the fatal exit must not deadlock on it.
    const std::string path = testing::TempDir() + "stats_test_clash.json";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            startStatsTelemetry(path);
            StatRegistry::global().counter("a.b");
            StatRegistry::global().counter("a.b.c");
        },
        ::testing::ExitedWithCode(1), "conflicts with the hierarchy");
    EXPECT_NE(takeStatsFile(path).find("died_mid_run"), std::string::npos);
}

TEST(TelemetryDeathTest, TerminateStillWritesStats)
{
    const std::string path =
        testing::TempDir() + "stats_test_terminate.json";
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            startStatsTelemetry(path);
            std::terminate();
        },
        "");
    EXPECT_NE(takeStatsFile(path).find("died_mid_run"), std::string::npos);
}

TEST(TelemetryDeathTest, PanicStillWritesStats)
{
    const std::string path = testing::TempDir() + "stats_test_panic.json";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            startStatsTelemetry(path);
            EVAL_ASSERT(path.empty(), "panicking mid-run");
        },
        ::testing::KilledBySignal(SIGABRT), "panicking mid-run");
    const std::string stats = takeStatsFile(path);
    EXPECT_FALSE(stats.empty());
    EXPECT_NE(stats.find("died_mid_run"), std::string::npos);
}

TEST(DecisionTraceTest, DisabledRecordIsNoOp)
{
    DecisionTrace trace(8);
    DecisionRecord r;
    trace.record(r);
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.totalRecorded(), 0u);
}

TEST(DecisionTraceTest, RingOverflowKeepsNewestOldestFirst)
{
    DecisionTrace trace(4);
    trace.setEnabled(true);
    for (int i = 0; i < 6; ++i) {
        DecisionRecord r;
        r.phaseId = static_cast<std::uint64_t>(i);
        trace.record(r);
    }
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.totalRecorded(), 6u);
    // Oldest surviving record is decision #2 (0 and 1 overwritten).
    EXPECT_EQ(trace.at(0).phaseId, 2u);
    EXPECT_EQ(trace.at(3).phaseId, 5u);
    // Sequence numbers are stamped monotonically.
    EXPECT_EQ(trace.at(0).sequence + 3, trace.at(3).sequence);
}

TEST(DecisionTraceTest, ContextStampingAndJsonl)
{
    DecisionTrace trace(8);
    trace.setEnabled(true);
    trace.setContext(3, 1);
    DecisionRecord r;
    r.phaseId = 9;
    r.outcome = "NoChange";
    trace.record(r);
    EXPECT_EQ(trace.at(0).chip, 3);
    EXPECT_EQ(trace.at(0).core, 1);

    const auto lines = splitLines(trace.jsonl());
    ASSERT_EQ(lines.size(), 1u);
    MiniJsonReader json;
    ASSERT_TRUE(json.parse(lines[0])) << lines[0];
    EXPECT_EQ(json.scalar("chip"), "3");
    EXPECT_EQ(json.scalar("core"), "1");
    EXPECT_EQ(json.scalar("phase_id"), "9");
    EXPECT_EQ(json.scalar("outcome"), "NoChange");

    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
}

} // namespace
