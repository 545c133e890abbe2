// The benchmark driver must run exactly the campaign `eval_cli fig13`
// runs: its digest equals runMonolithic's at 1 and 4 threads, for the
// untraced and the traced per-chip unit alike.

#include <gtest/gtest.h>

#include "campaign_driver.hh"
#include "exec/thread_pool.hh"
#include "shard/supervisor.hh"
#include "util/logging.hh"

using namespace eval;
using namespace perfbench;

namespace {

CampaignConfig
smallCampaign(AdaptScheme scheme)
{
    CampaignConfig campaign;
    campaign.experiment = makeConfig(7, 5);
    campaign.experiment.apps = {"gzip", "swim", "applu"};
    campaign.experiment.simInsts = 20000;
    campaign.scheme = scheme;
    return campaign;
}

void
expectDriverMatchesMonolithic(AdaptScheme scheme)
{
    setMinLogLevel(LogLevel::Warn);
    const CampaignConfig campaign = smallCampaign(scheme);
    const auto chips =
        static_cast<std::size_t>(campaign.experiment.chips);
    setGlobalThreads(1);
    const double mono = runMonolithic(campaign).digest();

    for (std::size_t threads : {1, 4}) {
        SCOPED_TRACE(threads);
        setGlobalThreads(threads);
        auto ctx = setUp(campaign.experiment, nullptr);
        const std::uint64_t expected = expectedInvocations(*ctx);
        const CampaignRun plain = runCampaign(*ctx, campaign, chips);
        EXPECT_EQ(plain.failed, 0u);
        EXPECT_EQ(plain.acc.digest(), mono);
        for (const ChipCampaignResult &r : plain.chips)
            EXPECT_EQ(r.invocations(), expected);

        const CampaignRun traced =
            runTracedCampaign(*ctx, campaign, chips);
        EXPECT_EQ(traced.failed, 0u);
        EXPECT_EQ(traced.acc.digest(), mono);
        ASSERT_EQ(traced.ledgers.size(), chips);
        for (const ChipLedger &l : traced.ledgers) {
            EXPECT_EQ(l.modelBuildS.size(), 4u);
            EXPECT_EQ(l.invokeS.size(), expected);
            // One training per (voltage env, core in use): the three
            // apps run on three distinct cores of every chip.
            EXPECT_EQ(l.trainS.size(),
                      scheme == AdaptScheme::FuzzyDyn ? 4u * 3u : 0u);
            EXPECT_GT(l.taskS, 0.0);
        }
    }
    setGlobalThreads(1);
}

TEST(PerfbenchDriver, FuzzyDigestMatchesMonolithic)
{
    expectDriverMatchesMonolithic(AdaptScheme::FuzzyDyn);
}

TEST(PerfbenchDriver, ExhaustiveDigestMatchesMonolithic)
{
    expectDriverMatchesMonolithic(AdaptScheme::ExhDyn);
}

TEST(PerfbenchDriver, GoodShareMinIsWorstEnv)
{
    CampaignAccumulator acc(0);
    ChipCampaignResult r;
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        r.outcomes[e][static_cast<std::size_t>(RetuneOutcome::NoChange)] =
            1;
        r.outcomes[e][static_cast<std::size_t>(RetuneOutcome::Power)] = e;
    }
    acc.addChip(0, r);
    // Env 3: 1 good of 4 invocations.
    EXPECT_DOUBLE_EQ(goodShareMin(acc), 0.25);
}

} // namespace
