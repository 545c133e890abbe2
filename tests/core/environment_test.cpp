/** Integration tests for Table 1 environments and the run driver. */

#include <vector>

#include <gtest/gtest.h>

#include "core/environment.hh"
#include "exec/thread_pool.hh"

namespace eval {
namespace {

class EnvironmentTest : public ::testing::Test
{
  protected:
    static ExperimentContext &
    ctx()
    {
        static ExperimentConfig cfg = [] {
            ExperimentConfig c;
            c.chips = 3;
            c.simInsts = 60000;
            return c;
        }();
        static ExperimentContext context(cfg);
        return context;
    }
};

TEST_F(EnvironmentTest, CapsMatchTable1)
{
    EXPECT_FALSE(environmentCaps(EnvironmentKind::Baseline).timingSpec);
    EXPECT_TRUE(environmentCaps(EnvironmentKind::TS).timingSpec);
    EXPECT_FALSE(environmentCaps(EnvironmentKind::TS).asv);
    EXPECT_TRUE(environmentCaps(EnvironmentKind::TS_ASV).asv);
    EXPECT_TRUE(environmentCaps(EnvironmentKind::TS_ASV_ABB).abb);
    EXPECT_TRUE(environmentCaps(EnvironmentKind::TS_ASV_Q).queueResize);
    EXPECT_TRUE(
        environmentCaps(EnvironmentKind::TS_ASV_Q_FU).fuReplication);
    const EnvCapabilities all = environmentCaps(EnvironmentKind::ALL);
    EXPECT_TRUE(all.asv && all.abb && all.queueResize &&
                all.fuReplication);
}

TEST_F(EnvironmentTest, NoVarIsUnity)
{
    const AppRunResult res = ctx().runApp(
        0, 0, appByName("gzip"), EnvironmentKind::NoVar,
        AdaptScheme::Static);
    EXPECT_DOUBLE_EQ(res.freqRel, 1.0);
    EXPECT_DOUBLE_EQ(res.perfRel, 1.0);
    EXPECT_GT(res.powerW, 10.0);
    EXPECT_LT(res.powerW, 30.0);
    EXPECT_DOUBLE_EQ(res.pePerInstr, 0.0);
}

TEST_F(EnvironmentTest, BaselineSlowerThanNoVar)
{
    const AppRunResult res = ctx().runApp(
        0, 0, appByName("gzip"), EnvironmentKind::Baseline,
        AdaptScheme::Static);
    EXPECT_LT(res.freqRel, 1.0);
    EXPECT_GT(res.freqRel, 0.55);
    EXPECT_LT(res.perfRel, 1.0);
}

TEST_F(EnvironmentTest, TimingSpeculationBeatsBaseline)
{
    const AppRunResult base = ctx().runApp(
        1, 0, appByName("swim"), EnvironmentKind::Baseline,
        AdaptScheme::Static);
    const AppRunResult ts = ctx().runApp(
        1, 0, appByName("swim"), EnvironmentKind::TS,
        AdaptScheme::ExhDyn);
    EXPECT_GT(ts.freqRel, base.freqRel);
    EXPECT_GT(ts.perfRel, base.perfRel);
}

TEST_F(EnvironmentTest, AsvBeatsTsAlone)
{
    const AppRunResult ts = ctx().runApp(
        1, 1, appByName("gzip"), EnvironmentKind::TS,
        AdaptScheme::ExhDyn);
    const AppRunResult asv = ctx().runApp(
        1, 1, appByName("gzip"), EnvironmentKind::TS_ASV,
        AdaptScheme::ExhDyn);
    EXPECT_GE(asv.freqRel, ts.freqRel);
}

TEST_F(EnvironmentTest, PeConstraintHolds)
{
    for (auto env : {EnvironmentKind::TS, EnvironmentKind::TS_ASV,
                     EnvironmentKind::TS_ASV_Q_FU}) {
        const AppRunResult res = ctx().runApp(
            0, 1, appByName("mcf"), env, AdaptScheme::ExhDyn);
        EXPECT_LE(res.pePerInstr, ctx().config().constraints.peMax * 1.01)
            << environmentName(env);
    }
}

TEST_F(EnvironmentTest, PowerConstraintHolds)
{
    const AppRunResult res = ctx().runApp(
        2, 0, appByName("crafty"), EnvironmentKind::TS_ASV_Q_FU,
        AdaptScheme::ExhDyn);
    EXPECT_LE(res.powerW, ctx().config().constraints.pMaxW * 1.02);
}

TEST_F(EnvironmentTest, FuzzyCloseToExhaustive)
{
    const AppRunResult fz = ctx().runApp(
        0, 2, appByName("swim"), EnvironmentKind::TS_ASV,
        AdaptScheme::FuzzyDyn);
    const AppRunResult ex = ctx().runApp(
        0, 2, appByName("swim"), EnvironmentKind::TS_ASV,
        AdaptScheme::ExhDyn);
    EXPECT_LE(fz.freqRel, ex.freqRel * 1.02);
    EXPECT_GE(fz.freqRel, ex.freqRel * 0.80);
}

TEST_F(EnvironmentTest, OutcomesOnlyForNewPhases)
{
    const AppProfile &app = appByName("gcc");   // three phases
    const AppRunResult res = ctx().runApp(1, 2, app,
                                          EnvironmentKind::TS_ASV,
                                          AdaptScheme::FuzzyDyn);
    EXPECT_EQ(res.outcomes.size(), 3u);
}

TEST_F(EnvironmentTest, SelectedAppsHonoursEnv)
{
    setenv("EVAL_APPS", "swim,gzip", 1);
    const auto apps = ctx().selectedApps();
    unsetenv("EVAL_APPS");
    ASSERT_EQ(apps.size(), 2u);
    EXPECT_EQ(apps[0]->name, "swim");
    EXPECT_EQ(apps[1]->name, "gzip");
    EXPECT_EQ(ctx().selectedApps().size(), specSuite().size());
}

TEST_F(EnvironmentTest, NamesRoundTrip)
{
    EXPECT_STREQ(environmentName(EnvironmentKind::TS_ASV_Q_FU),
                 "TS+ASV+Q+FU");
    EXPECT_STREQ(adaptSchemeName(AdaptScheme::FuzzyDyn), "Fuzzy-Dyn");
}

// ---------------------------------------------------------------------
// ExperimentContext::sweep, the one Figure 10-12 loop.
// ---------------------------------------------------------------------

/** Four chips: with fewer, a fold that followed the thread schedule
 *  instead of chip order still rounded to the same bits. */
ExperimentConfig
sweepConfig()
{
    ExperimentConfig cfg;
    cfg.chips = 4;
    cfg.simInsts = 60000;
    cfg.apps = {"gzip", "swim"};
    return cfg;
}

const SweepKey kStaticCell{EnvironmentKind::TS_ASV, AdaptScheme::Static};
const SweepKey kFuzzyCell{EnvironmentKind::TS_ASV_Q_FU,
                          AdaptScheme::FuzzyDyn};

/** sweep(@p keys) on a fresh context over a @p threads-wide pool. */
std::vector<SweepCell>
freshSweep(const std::vector<SweepKey> &keys, std::size_t threads)
{
    setGlobalThreads(threads);
    ExperimentContext context(sweepConfig());
    std::vector<SweepCell> cells = context.sweep(keys);
    setGlobalThreads(1);
    return cells;
}

void
expectBitIdentical(const SweepCell &a, const SweepCell &b)
{
    EXPECT_EQ(a.freqRel, b.freqRel);
    EXPECT_EQ(a.perfRel, b.perfRel);
    EXPECT_EQ(a.powerW, b.powerW);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.runs, b.runs);
}

TEST(Sweep, BitIdenticalAcrossThreadCounts)
{
    const auto serial = freshSweep({kStaticCell, kFuzzyCell}, 1);
    const auto parallel = freshSweep({kStaticCell, kFuzzyCell}, 4);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);
    for (std::size_t c = 0; c < serial.size(); ++c)
        expectBitIdentical(serial[c], parallel[c]);
}

TEST(Sweep, CellsDoNotInteract)
{
    const auto both = freshSweep({kStaticCell, kFuzzyCell}, 1);
    const auto alone = freshSweep({kFuzzyCell}, 1);
    ASSERT_EQ(both.size(), 2u);
    ASSERT_EQ(alone.size(), 1u);
    expectBitIdentical(both[1], alone[0]);
}

TEST(Sweep, RunsAndOutcomeTallies)
{
    const auto cells = freshSweep({kStaticCell, kFuzzyCell}, 1);
    ASSERT_EQ(cells.size(), 2u);
    const ExperimentConfig cfg = sweepConfig();
    const auto expectedRuns =
        static_cast<std::uint64_t>(cfg.chips) * cfg.apps.size();
    for (const SweepCell &cell : cells) {
        EXPECT_EQ(cell.runs, expectedRuns);
        EXPECT_GT(cell.freqRel, 0.0);
        EXPECT_GT(cell.powerW, 0.0);
    }
    // Static runs are qualified once and never invoke the controller.
    EXPECT_EQ(invocationCount(cells[0].outcomes), 0u);
    EXPECT_GT(invocationCount(cells[1].outcomes), 0u);
}

} // namespace
} // namespace eval
