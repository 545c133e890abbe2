/** Checkpoint/resume equivalence: a campaign stopped after k chips
 *  and resumed writes merged outputs BYTE-identical to the
 *  uninterrupted run — across repeated interruptions, and from a
 *  stale checkpoint one block behind the work already done — and
 *  corrupt, truncated, or mismatched checkpoints are rejected with a
 *  clean SnapshotError / exit code, never a crash or a silent
 *  restart. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "exec/thread_pool.hh"
#include "shard/supervisor.hh"
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

CampaignLoopOptions
loopOpts(const std::string &dir)
{
    CampaignLoopOptions opts;
    opts.campaign = testCampaign();
    opts.outDir = dir;
    opts.checkpointEvery = 2;
    return opts;
}

/** Run the loop, discarding the accumulator; returns the exit code. */
int
run(const CampaignLoopOptions &opts)
{
    CampaignAccumulator acc;
    return runCampaignLoop(opts, acc);
}

/** A fresh, empty run directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    fs::remove_all(dir);
    return dir;
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
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
corruptByte(const std::string &path, std::size_t offset)
{
    std::string bytes = readFileBytes(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    writeFileBytes(path, bytes);
}

/** merged.snap + merged.stats.json of an uninterrupted run. */
struct MergedBytes
{
    std::string snap;
    std::string stats;
};

MergedBytes
mergedBytes(const std::string &dir)
{
    return {readFileBytes(mergedSnapshotPath(dir)),
            readFileBytes(mergedStatsPath(dir))};
}

MergedBytes
referenceBytes()
{
    const std::string dir = freshDir("ckpt_ref");
    EXPECT_EQ(run(loopOpts(dir)), kCampaignExitOk);
    return mergedBytes(dir);
}

void
expectSameBytes(const MergedBytes &got, const MergedBytes &want)
{
    EXPECT_EQ(got.snap, want.snap) << "merged.snap differs";
    EXPECT_EQ(got.stats, want.stats) << "merged.stats.json differs";
}

TEST(CheckpointResumeTest, DirectoryRunEqualsMonolithic)
{
    setGlobalThreads(0);
    const MergedBytes ref = referenceBytes();
    const CampaignAccumulator mono = runMonolithic(testCampaign());
    EXPECT_EQ(ref.snap, encodeBinary(mono.toSnapshot()));
    EXPECT_EQ(ref.stats, mono.statsJson());
}

TEST(CheckpointResumeTest, InterruptedResumeIsByteIdentical)
{
    setGlobalThreads(0);
    const MergedBytes ref = referenceBytes();

    // Interrupted: stop after 2 chips, twice, then run to completion.
    const std::string dir = freshDir("ckpt_resume");
    CampaignLoopOptions stop = loopOpts(dir);
    stop.stopAfterChips = 2;
    ASSERT_EQ(run(stop), kCampaignExitInterrupted);
    EXPECT_TRUE(fs::exists(campaignCheckpointPath(dir)));
    EXPECT_FALSE(fs::exists(mergedSnapshotPath(dir)));

    // The checkpoint records the cursor mid-population.
    const CampaignCheckpoint cp =
        readCheckpointFile(campaignCheckpointPath(dir));
    EXPECT_EQ(cp.nextChip, 2u);
    EXPECT_EQ(cp.chips, 6u);

    stop.resume = true;
    ASSERT_EQ(run(stop), kCampaignExitInterrupted); // at 4
    CampaignLoopOptions finish = loopOpts(dir);
    finish.resume = true;
    ASSERT_EQ(run(finish), kCampaignExitOk);
    expectSameBytes(mergedBytes(dir), ref);

    // Resuming a finished campaign computes nothing and rewrites the
    // same outputs.
    ASSERT_EQ(run(finish), kCampaignExitOk);
    expectSameBytes(mergedBytes(dir), ref);
}

TEST(CheckpointResumeTest, StaleCheckpointResumesByteIdentical)
{
    // A process killed after folding block k+1 but before its
    // checkpoint landed leaves block k's checkpoint behind.  Resuming
    // from that stale file recomputes block k+1 and must still match.
    setGlobalThreads(0);
    const MergedBytes ref = referenceBytes();

    const std::string dir = freshDir("ckpt_stale");
    const std::string ckpt = campaignCheckpointPath(dir);
    CampaignLoopOptions stop = loopOpts(dir);
    stop.stopAfterChips = 2;
    ASSERT_EQ(run(stop), kCampaignExitInterrupted);
    const std::string afterBlockK = readFileBytes(ckpt);

    stop.resume = true;
    ASSERT_EQ(run(stop), kCampaignExitInterrupted);
    ASSERT_EQ(readCheckpointFile(ckpt).nextChip, 4u);

    writeFileBytes(ckpt, afterBlockK);
    ASSERT_EQ(readCheckpointFile(ckpt).nextChip, 2u);
    CampaignLoopOptions finish = loopOpts(dir);
    finish.resume = true;
    ASSERT_EQ(run(finish), kCampaignExitOk);
    expectSameBytes(mergedBytes(dir), ref);
}

TEST(CheckpointResumeTest, CorruptCheckpointIsRejectedCleanly)
{
    setGlobalThreads(0);
    const std::string dir = freshDir("ckpt_corrupt");

    CampaignLoopOptions stop = loopOpts(dir);
    stop.stopAfterChips = 2;
    ASSERT_EQ(run(stop), kCampaignExitInterrupted);
    const std::string ckpt = campaignCheckpointPath(dir);
    const std::string good = readFileBytes(ckpt);

    // A flipped byte anywhere must surface as SnapshotError on read
    // and as the clean kCampaignExitCorrupt from a resuming run.
    corruptByte(ckpt, good.size() / 2);
    EXPECT_THROW(readCheckpointFile(ckpt), SnapshotError);
    CampaignLoopOptions resume = loopOpts(dir);
    resume.resume = true;
    EXPECT_EQ(run(resume), kCampaignExitCorrupt);

    // Truncation (torn write without the atomic rename) likewise.
    writeFileBytes(ckpt, good.substr(0, good.size() / 3));
    EXPECT_THROW(readCheckpointFile(ckpt), SnapshotError);
    EXPECT_EQ(run(resume), kCampaignExitCorrupt);

    // Restoring the original bytes makes the same run succeed — the
    // rejection was about the data, not lingering state.
    writeFileBytes(ckpt, good);
    EXPECT_EQ(run(resume), kCampaignExitOk);
}

/** A checkpoint over chips [0, 2) of 6 whose (env 0, NoChange) tally
 *  is bumped by @p bump. */
CampaignCheckpoint
smallCheckpoint(std::uint64_t bump)
{
    CampaignAccumulator acc(0);
    for (std::uint64_t chip = 0; chip < 2; ++chip) {
        ChipCampaignResult r;
        for (std::size_t e = 0; e < kNumVoltageEnvs; ++e)
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                r.outcomes[e][o] = chip + e + o;
        if (chip == 0)
            r.outcomes[0][0] += bump;
        acc.addChip(chip, r);
    }
    CampaignCheckpoint cp;
    cp.campaignFingerprint = "edited-tally";
    cp.chips = 6;
    cp.nextChip = 2;
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
                        kCampaignCheckpointVersion);
    payload.set("accumulator", smallCheckpoint(1).accumulator);
    const JsonValue edited = makeSnapshot(
        "shard_checkpoint", kCampaignCheckpointVersion, payload);
    EXPECT_NE(rejection(edited).find("integrity digest mismatch"),
              std::string::npos)
        << rejection(edited);

    // A NaN stored digest equals nothing, itself included.
    payload = snapshotPayload(honest, "shard_checkpoint",
                              kCampaignCheckpointVersion);
    payload.set("integrity", std::nan(""));
    EXPECT_NE(rejection(makeSnapshot("shard_checkpoint",
                                     kCampaignCheckpointVersion, payload))
                  .find("integrity digest mismatch"),
              std::string::npos);

    // The shard-coordinate schema (v2) is refused by the envelope's
    // kind-version check.
    EXPECT_NE(rejection(makeSnapshot("shard_checkpoint", 2,
                                     snapshotPayload(
                                         honest, "shard_checkpoint",
                                         kCampaignCheckpointVersion))),
              "");
}

TEST(CheckpointResumeTest, MismatchedCheckpointsAreRefused)
{
    setGlobalThreads(0);
    const std::string dir = freshDir("ckpt_mismatch");
    const std::string ckpt = campaignCheckpointPath(dir);

    CampaignLoopOptions stop = loopOpts(dir);
    stop.stopAfterChips = 2;
    ASSERT_EQ(run(stop), kCampaignExitInterrupted);
    const std::string good = readFileBytes(ckpt);

    // A checkpoint from a different campaign (fingerprint) must not
    // resume.
    CampaignLoopOptions other = loopOpts(dir);
    other.resume = true;
    other.campaign.experiment.seed = 99;
    EXPECT_EQ(run(other), kCampaignExitCorrupt);

    // Nor one whose cursor disagrees with its accumulator: a valid
    // envelope and digest, but the cursor claims a block the
    // accumulator never folded.
    CampaignCheckpoint cp = readCheckpointFile(ckpt);
    cp.nextChip = 4;
    ASSERT_TRUE(writeCheckpointFile(ckpt, cp));
    CampaignLoopOptions resume = loopOpts(dir);
    resume.resume = true;
    EXPECT_EQ(run(resume), kCampaignExitCorrupt);

    // Neither refusal touched the checkpoint's data: the original
    // bytes still resume to completion.
    writeFileBytes(ckpt, good);
    EXPECT_EQ(run(resume), kCampaignExitOk);
}

} // namespace
} // namespace eval
