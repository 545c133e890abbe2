/** The Fig 13 campaign: the cell loop (ExperimentContext::
 *  adaptPopulation) is thread-count invariant on a non-FU+Queue technique
 *  row and sums to the campaign's tallies; the accumulator's snapshot
 *  round-trips losslessly; the campaign's bytes do not depend on the
 *  thread count; and the per-chip unit releases its chip's caches. */

#include <gtest/gtest.h>

#include <array>

#include "exec/thread_pool.hh"
#include "shard/supervisor.hh"
#include "stats/stat_registry.hh"
#include "valid/snapshot.hh"

namespace eval {
namespace {

CampaignConfig
testCampaign()
{
    CampaignConfig campaign;
    campaign.experiment.seed = 11;
    campaign.experiment.chips = 8;
    campaign.experiment.simInsts = 20000;
    campaign.experiment.apps = {"gzip", "swim"};
    campaign.scheme = AdaptScheme::ExhDyn;
    return campaign;
}

TEST(CampaignTest, BytesMatchAcrossThreadCounts)
{
    const CampaignConfig campaign = testCampaign();
    setGlobalThreads(1);
    const CampaignAccumulator serial = runMonolithic(campaign);
    setGlobalThreads(4);
    const CampaignAccumulator parallel = runMonolithic(campaign);
    setGlobalThreads(0);

    EXPECT_EQ(serial.chipCount(),
              static_cast<std::uint64_t>(campaign.experiment.chips));
    EXPECT_EQ(encodeBinary(parallel.toSnapshot()),
              encodeBinary(serial.toSnapshot()));
    EXPECT_EQ(parallel.statsJson(), serial.statsJson());
    EXPECT_EQ(parallel.digest(), serial.digest());
}

TEST(CampaignTest, AccumulatorRoundTripsThroughSnapshots)
{
    setGlobalThreads(0);
    CampaignConfig campaign = testCampaign();
    campaign.experiment.chips = 3;
    const CampaignAccumulator acc = runMonolithic(campaign);

    // The snapshot re-reads into an accumulator that re-encodes to the
    // identical bytes (serialization is lossless and canonical), in
    // text and binary form.
    const CampaignAccumulator again =
        CampaignAccumulator::fromSnapshot(acc.toSnapshot());
    EXPECT_EQ(encodeBinary(again.toSnapshot()),
              encodeBinary(acc.toSnapshot()));
    EXPECT_EQ(again.toSnapshot().dump(2), acc.toSnapshot().dump(2));
    EXPECT_EQ(again.statsJson(), acc.statsJson());
    EXPECT_EQ(again.firstChip(), 0u);
    EXPECT_EQ(again.nextChip(), 3u);

    // A snapshot of another kind is refused.
    EXPECT_THROW(CampaignAccumulator::fromSnapshot(
                     makeSnapshot("not_a_result", 1, acc.toPayload())),
                 SnapshotError);
}

TEST(CampaignTest, ChipUnitReleasesItsChip)
{
    setGlobalThreads(0);
    CampaignConfig campaign = testCampaign();
    campaign.scheme = AdaptScheme::FuzzyDyn;
    // Four apps put an app on every core ((chip + app) % 4).
    campaign.experiment.apps = {"gzip", "swim", "mcf", "art"};
    ExperimentContext ctx(campaign.experiment);
    const Counter &trainings =
        StatRegistry::global().counter("fuzzy.trainings");

    // Each call trains 4 cores x 4 voltage envs: the first unit left
    // nothing cached behind for the second to reuse.
    const std::uint64_t before = trainings.value();
    const ChipCampaignResult first = runCampaignChip(ctx, campaign, 0);
    EXPECT_EQ(trainings.value() - before, 16u);
    const ChipCampaignResult second = runCampaignChip(ctx, campaign, 0);
    EXPECT_EQ(trainings.value() - before, 32u);
    EXPECT_EQ(second.outcomes, first.outcomes);
    EXPECT_GT(first.invocations(), 0u);

    // Evicting the already-released chip again is a no-op.
    ctx.evictChip(0);
    EXPECT_EQ(runCampaignChip(ctx, campaign, 0).outcomes, first.outcomes);
}

/** Per-env tallies of the Fig 13 cell loop (adaptPopulation) over a
 *  fresh context, chips fanned out over the global pool. */
std::array<OutcomeTally, kNumVoltageEnvs>
runUnit(const ExperimentConfig &cfg, bool fu, bool queue,
        AdaptScheme scheme)
{
    ExperimentContext ctx(cfg);
    std::array<OutcomeTally, kNumVoltageEnvs> perEnv{};
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        EnvCapabilities caps = fig13Caps(fig13VoltageEnvs()[e]);
        caps.fuReplication = fu;
        caps.queueResize = queue;
        perEnv[e] = ctx.adaptPopulation(caps, scheme);
    }
    return perEnv;
}

TEST(Fig13Unit, NoOptTalliesMatchAcrossThreadCounts)
{
    // The No opt technique row (neither FU replication nor queue
    // resizing), which only eval_paper's fig13 runs at full size.
    ExperimentConfig cfg;
    cfg.seed = 5;
    cfg.chips = 3;
    cfg.simInsts = 20000;
    cfg.apps = {"gzip", "swim"};

    setGlobalThreads(1);
    const auto serial =
        runUnit(cfg, false, false, AdaptScheme::FuzzyDyn);
    setGlobalThreads(4);
    const auto parallel =
        runUnit(cfg, false, false, AdaptScheme::FuzzyDyn);
    setGlobalThreads(0);

    std::uint64_t invocations = 0;
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        EXPECT_EQ(serial[e], parallel[e])
            << "env " << fig13VoltageEnvs()[e].tag;
        for (std::uint64_t n : serial[e])
            invocations += n;
    }
    EXPECT_GT(invocations, 0u);
}

TEST(Fig13Unit, FuQueueSumsEqualCampaignTallies)
{
    setGlobalThreads(0);
    CampaignConfig campaign = testCampaign();
    campaign.experiment.chips = 3;
    const CampaignAccumulator acc = runMonolithic(campaign);
    const auto perEnv =
        runUnit(campaign.experiment, true, true, campaign.scheme);
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o) {
            EXPECT_EQ(perEnv[e][o],
                      acc.outcomeCount(e, static_cast<RetuneOutcome>(o)))
                << "env " << fig13VoltageEnvs()[e].tag << " outcome "
                << retuneOutcomeName(static_cast<RetuneOutcome>(o));
        }
    }
}

} // namespace
} // namespace eval
