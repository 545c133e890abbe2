/** The shard-equivalence differential suite (the tentpole property):
 *  the merged output of a sharded Fig 13 campaign is BYTE-identical
 *  to the monolithic run at every tested shard count — snapshot
 *  bytes, stats JSON, and outcome digests, not just "close".
 *
 *  Ingredients under test together: Rng::split chip purity, lazy
 *  manufacture, the order-preserving accumulator merge, the shard
 *  planner, and the supervisor's merge path.  The Fig 13 unit
 *  (ExperimentContext::adaptApps) the campaign is built from is
 *  checked on its own too: thread-count invariant on a non-FU+Queue
 *  technique row, and summing to the campaign's tallies. */

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>

#include "exec/thread_pool.hh"
#include "shard/supervisor.hh"
#include "shard/worker.hh"
#include "valid/snapshot.hh"

namespace eval {
namespace {

namespace fs = std::filesystem;

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

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(ShardDifferentialTest, MergedEqualsMonolithicAtEveryShardCount)
{
    setGlobalThreads(0);
    const CampaignConfig campaign = testCampaign();
    const CampaignAccumulator mono = runMonolithic(campaign);

    // Monolithic reference bytes, written through the same path the
    // supervisor uses.
    const std::string monoDir =
        ::testing::TempDir() + "shard_diff_mono";
    fs::remove_all(monoDir);
    ASSERT_TRUE(writeMergedOutputs(mono, monoDir));
    const std::string refSnap =
        readFileBytes(mergedSnapshotPath(monoDir));
    const std::string refStats =
        readFileBytes(mergedStatsPath(monoDir));
    const std::string refText = mono.toSnapshot().dump(2);
    const std::string refBinary = encodeBinary(mono.toSnapshot());
    const double refDigest = mono.digest();

    for (std::uint32_t shards : {1u, 2u, 8u}) {
        const std::string dir = ::testing::TempDir() +
                                "shard_diff_s" +
                                std::to_string(shards);
        fs::remove_all(dir);

        ShardSupervisorOptions opts;
        opts.campaign = campaign;
        opts.shards = shards;
        opts.outDir = dir;
        opts.checkpointEvery = 3; // deliberately unaligned with 8
        ASSERT_EQ(runShardSupervisor(opts), 0)
            << shards << "-shard run failed";

        const CampaignAccumulator merged =
            mergeShardResults(campaign, shards, dir);

        // Every representation, byte for byte.
        EXPECT_EQ(merged.toSnapshot().dump(2), refText)
            << shards << " shards: text snapshot differs";
        EXPECT_EQ(encodeBinary(merged.toSnapshot()), refBinary)
            << shards << " shards: binary snapshot differs";
        EXPECT_EQ(merged.statsJson(), refStats)
            << shards << " shards: stats JSON differs";
        EXPECT_EQ(merged.digest(), refDigest)
            << shards << " shards: outcome digest differs";
        EXPECT_EQ(readFileBytes(mergedSnapshotPath(dir)), refSnap)
            << shards << " shards: merged.snap file differs";
        EXPECT_EQ(readFileBytes(mergedStatsPath(dir)), refStats)
            << shards << " shards: merged.stats.json file differs";
    }
}

TEST(ShardDifferentialTest, ShardResultsRoundTripThroughSnapshots)
{
    setGlobalThreads(0);
    const CampaignConfig campaign = testCampaign();
    const std::string dir =
        ::testing::TempDir() + "shard_diff_roundtrip";
    fs::remove_all(dir);

    ShardSupervisorOptions opts;
    opts.campaign = campaign;
    opts.shards = 2;
    opts.outDir = dir;
    ASSERT_EQ(runShardSupervisor(opts), 0);

    // Each shard result re-reads into an accumulator whose snapshot
    // re-encodes to the identical bytes (serialization is lossless
    // and canonical), and the planner's ranges tile the population.
    std::uint64_t expectBegin = 0;
    for (std::uint32_t i = 0; i < 2; ++i) {
        const CampaignAccumulator acc =
            readShardResult(campaign, i, 2, dir);
        EXPECT_EQ(acc.firstChip(), expectBegin);
        expectBegin = acc.nextChip();
        const CampaignAccumulator again =
            CampaignAccumulator::fromSnapshot(acc.toSnapshot());
        EXPECT_EQ(encodeBinary(again.toSnapshot()),
                  encodeBinary(acc.toSnapshot()));
    }
    EXPECT_EQ(expectBegin,
              static_cast<std::uint64_t>(campaign.experiment.chips));

    // Results refuse to be read under the wrong coordinates or a
    // different campaign fingerprint.
    EXPECT_THROW(readShardResult(campaign, 0, 3, dir), SnapshotError);
    CampaignConfig other = campaign;
    other.experiment.seed = 12;
    EXPECT_THROW(readShardResult(other, 0, 2, dir), SnapshotError);
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
