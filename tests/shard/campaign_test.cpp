/** The Fig 13 campaign: the per-chip unit (ExperimentContext::
 *  adaptApps) is thread-count invariant on a non-FU+Queue technique
 *  row and sums to the campaign's tallies; the accumulator's snapshot
 *  round-trips losslessly; and the campaign's bytes do not depend on
 *  the thread count. */

#include <gtest/gtest.h>

#include <array>

#include "exec/thread_pool.hh"
#include "shard/supervisor.hh"
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

/** Per-env tallies of the Fig 13 unit over every chip of a fresh
 *  context, chips fanned out over the global pool. */
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
        const auto perChip = globalPool().parallelMap(
            ctx.numChips(), [&](std::size_t chip) {
                return ctx.adaptApps(chip, caps, scheme);
            });
        for (const OutcomeTally &t : perChip)
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                perEnv[e][o] += t[o];
    }
    return perEnv;
}

TEST(Fig13Unit, NoOptTalliesMatchAcrossThreadCounts)
{
    // The No opt technique row (neither FU replication nor queue
    // resizing), which only bench_fig13_outcomes runs at full size.
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
