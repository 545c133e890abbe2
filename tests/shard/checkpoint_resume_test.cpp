/** Checkpoint/resume equivalence: a shard killed after k chips and
 *  resumed produces a final result file BYTE-identical to the
 *  uninterrupted run — across repeated interruptions — and corrupt,
 *  truncated, or mismatched checkpoints are rejected with a clean
 *  SnapshotError / worker exit code, never a crash or a silent
 *  restart. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "exec/thread_pool.hh"
#include "shard/campaign.hh"
#include "shard/worker.hh"
#include "valid/checkpoint.hh"
#include "valid/snapshot.hh"

namespace eval {
namespace {

namespace fs = std::filesystem;

CampaignConfig
testCampaign()
{
    CampaignConfig campaign;
    campaign.experiment.seed = 11;
    campaign.experiment.chips = 6;
    campaign.experiment.simInsts = 20000;
    campaign.experiment.apps = {"gzip", "swim"};
    campaign.scheme = AdaptScheme::ExhDyn;
    return campaign;
}

ShardWorkerOptions
workerOpts(const std::string &dir)
{
    ShardWorkerOptions w;
    w.campaign = testCampaign();
    w.spec = ShardSpec{0, 1};
    w.outDir = dir;
    w.checkpointEvery = 2;
    return w;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
corruptByte(const std::string &path, std::size_t offset)
{
    std::string bytes = readFileBytes(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointResumeTest, InterruptedResumeIsByteIdentical)
{
    setGlobalThreads(0);

    // Reference: one uninterrupted run.
    const std::string refDir = ::testing::TempDir() + "ckpt_ref";
    fs::remove_all(refDir);
    ASSERT_EQ(runShardWorker(workerOpts(refDir)), kShardExitOk);
    const std::string refBytes =
        readFileBytes(shardResultPath(refDir, 0));
    // The worker cleans up its checkpoint once the result lands.
    EXPECT_FALSE(fs::exists(shardCheckpointPath(refDir, 0)));

    // Interrupted: stop after 2 chips, twice, then run to completion.
    const std::string dir = ::testing::TempDir() + "ckpt_resume";
    fs::remove_all(dir);
    ShardWorkerOptions stop = workerOpts(dir);
    stop.stopAfterChips = 2;
    ASSERT_EQ(runShardWorker(stop), kShardExitInterrupted);
    EXPECT_TRUE(fs::exists(shardCheckpointPath(dir, 0)));
    EXPECT_FALSE(fs::exists(shardResultPath(dir, 0)));

    // The checkpoint records the cursor mid-range.
    const ShardCheckpoint cp =
        readCheckpointFile(shardCheckpointPath(dir, 0));
    EXPECT_EQ(cp.nextChip, 2u);
    EXPECT_EQ(cp.rangeEnd, 6u);

    stop.resume = true;
    ASSERT_EQ(runShardWorker(stop), kShardExitInterrupted); // at 4
    ShardWorkerOptions finish = workerOpts(dir);
    finish.resume = true;
    ASSERT_EQ(runShardWorker(finish), kShardExitOk);

    EXPECT_EQ(readFileBytes(shardResultPath(dir, 0)), refBytes);
    EXPECT_FALSE(fs::exists(shardCheckpointPath(dir, 0)));

    // Resuming an already-complete shard is a fast no-op.
    ASSERT_EQ(runShardWorker(finish), kShardExitOk);
    EXPECT_EQ(readFileBytes(shardResultPath(dir, 0)), refBytes);
}

TEST(CheckpointResumeTest, CorruptCheckpointIsRejectedCleanly)
{
    setGlobalThreads(0);
    const std::string dir = ::testing::TempDir() + "ckpt_corrupt";
    fs::remove_all(dir);

    ShardWorkerOptions stop = workerOpts(dir);
    stop.stopAfterChips = 2;
    ASSERT_EQ(runShardWorker(stop), kShardExitInterrupted);
    const std::string ckpt = shardCheckpointPath(dir, 0);
    const std::string good = readFileBytes(ckpt);

    // A flipped byte anywhere must surface as SnapshotError on read
    // and as the clean kShardExitCorrupt from a resuming worker.
    corruptByte(ckpt, good.size() / 2);
    EXPECT_THROW(readCheckpointFile(ckpt), SnapshotError);
    ShardWorkerOptions resume = workerOpts(dir);
    resume.resume = true;
    EXPECT_EQ(runShardWorker(resume), kShardExitCorrupt);

    // Truncation (torn write without the atomic rename) likewise.
    {
        std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
        out.write(good.data(),
                  static_cast<std::streamsize>(good.size() / 3));
    }
    EXPECT_THROW(readCheckpointFile(ckpt), SnapshotError);
    EXPECT_EQ(runShardWorker(resume), kShardExitCorrupt);

    // Restoring the original bytes makes the same worker succeed —
    // the rejection was about the data, not lingering state.
    {
        std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
        out.write(good.data(),
                  static_cast<std::streamsize>(good.size()));
    }
    EXPECT_EQ(runShardWorker(resume), kShardExitOk);
}

/** A checkpoint over chips [4, 6) whose (env 0, NoChange) tally is
 *  bumped by @p bump. */
ShardCheckpoint
smallCheckpoint(std::uint64_t bump)
{
    CampaignAccumulator acc(4);
    for (std::uint64_t chip = 4; chip < 6; ++chip) {
        ChipCampaignResult r;
        for (std::size_t e = 0; e < kNumVoltageEnvs; ++e)
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                r.outcomes[e][o] = chip + e + o;
        if (chip == 4)
            r.outcomes[0][0] += bump;
        acc.addChip(chip, r);
    }
    ShardCheckpoint cp;
    cp.campaignFingerprint = "edited-tally";
    cp.shardCount = 2;
    cp.shardIndex = 1;
    cp.rangeBegin = 4;
    cp.rangeEnd = 8;
    cp.nextChip = 6;
    cp.accumulator = acc.toPayload();
    return cp;
}

/** checkpointFromSnapshot's SnapshotError message ("" if accepted). */
std::string
rejection(const JsonValue &snapshot)
{
    try {
        checkpointFromSnapshot(snapshot);
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

TEST(CheckpointResumeTest, EditedTallyFailsTheIntegrityDigest)
{
    const JsonValue honest = toSnapshot(smallCheckpoint(0));
    EXPECT_EQ(rejection(honest), "");

    // Edit one outcome count but keep the stored digest: the payload
    // still parses, so only the digest compare can catch it.
    JsonValue payload =
        snapshotPayload(honest, "shard_checkpoint",
                        kShardCheckpointVersion);
    payload.set("accumulator", smallCheckpoint(1).accumulator);
    const JsonValue edited = makeSnapshot(
        "shard_checkpoint", kShardCheckpointVersion, payload);
    EXPECT_NE(rejection(edited).find("integrity digest mismatch"),
              std::string::npos)
        << rejection(edited);

    // A NaN stored digest equals nothing, itself included.
    payload = snapshotPayload(honest, "shard_checkpoint",
                              kShardCheckpointVersion);
    payload.set("integrity", std::nan(""));
    EXPECT_NE(rejection(makeSnapshot("shard_checkpoint",
                                     kShardCheckpointVersion, payload))
                  .find("integrity digest mismatch"),
              std::string::npos);
}

TEST(CheckpointResumeTest, MismatchedCheckpointsAreRefused)
{
    setGlobalThreads(0);
    const std::string dir = ::testing::TempDir() + "ckpt_mismatch";
    fs::remove_all(dir);

    ShardWorkerOptions stop = workerOpts(dir);
    stop.stopAfterChips = 2;
    ASSERT_EQ(runShardWorker(stop), kShardExitInterrupted);

    // A checkpoint from a different campaign must not resume.
    ShardWorkerOptions other = workerOpts(dir);
    other.resume = true;
    other.campaign.experiment.seed = 99;
    EXPECT_EQ(runShardWorker(other), kShardExitCorrupt);

    // Nor one claiming different shard coordinates.
    ShardWorkerOptions wrongSpan = workerOpts(dir);
    wrongSpan.resume = true;
    wrongSpan.spec = ShardSpec{0, 2};
    EXPECT_EQ(runShardWorker(wrongSpan), kShardExitCorrupt);

    // An incomplete result file is not usable either.
    ShardWorkerOptions finish = workerOpts(dir);
    finish.resume = true;
    ASSERT_EQ(runShardWorker(finish), kShardExitOk);
    const std::string result = shardResultPath(dir, 0);
    const std::string bytes = readFileBytes(result);
    {
        std::ofstream out(result,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_FALSE(
        shardResultUsable(testCampaign(), 0, 1, dir));
    EXPECT_THROW(readShardResult(testCampaign(), 0, 1, dir),
                 SnapshotError);
}

} // namespace
} // namespace eval
