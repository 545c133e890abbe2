/** Randomized robustness of the shard-checkpoint codec: arbitrary
 *  truncations and single-byte flips of a valid checkpoint file must
 *  either be rejected with SnapshotError or decode to a checkpoint
 *  whose accumulator payload is bit-identical to the original (the
 *  integrity digest makes silently-different statistics impossible).
 *  Never a crash, never an abort. */

#include <gtest/gtest.h>

#include <fstream>

#include "shard/campaign.hh"
#include "util/random.hh"
#include "valid/checkpoint.hh"
#include "valid/snapshot.hh"

namespace eval {
namespace {

/** A small but non-trivial checkpoint (mid-range cursor, nonzero
 *  tallies in several cells, fractional good-shares). */
ShardCheckpoint
makeCheckpoint()
{
    CampaignAccumulator acc(5);
    Rng rng(42);
    for (std::uint64_t chip = 5; chip < 9; ++chip) {
        ChipCampaignResult r;
        for (std::size_t e = 0; e < kNumVoltageEnvs; ++e)
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                r.outcomes[e][o] = rng.next() % 7;
        acc.addChip(chip, r);
    }
    ShardCheckpoint cp;
    cp.campaignFingerprint = "fuzz-campaign;scheme=Exh-Dyn";
    cp.shardIndex = 1;
    cp.shardCount = 4;
    cp.rangeBegin = 5;
    cp.rangeEnd = 12;
    cp.nextChip = 9;
    cp.accumulator = acc.toPayload();
    return cp;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

class CheckpointFuzzTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "checkpoint_fuzz.snap";
        original_ = makeCheckpoint();
        ASSERT_TRUE(
            writeCheckpointFile(path_, original_));
        good_ = fileBytes(path_);
        ASSERT_FALSE(good_.empty());
        refAccumulator_ = encodeBinary(original_.accumulator);
    }

    /** The fuzz oracle: mutated bytes either throw SnapshotError or
     *  decode with a bit-identical accumulator payload. */
    void
    expectRejectedOrAccumulatorIntact(const std::string &mutated)
    {
        writeBytes(path_, mutated);
        try {
            const ShardCheckpoint cp = readCheckpointFile(path_);
            EXPECT_EQ(encodeBinary(cp.accumulator), refAccumulator_)
                << "decoded checkpoint carries silently-corrupted "
                   "statistics";
        } catch (const SnapshotError &) {
            // The expected outcome for almost every mutation.
        }
    }

    std::string path_;
    ShardCheckpoint original_;
    std::string good_;
    std::string refAccumulator_;
};

TEST_F(CheckpointFuzzTest, RoundTripsWhenUntouched)
{
    const ShardCheckpoint cp = readCheckpointFile(path_);
    EXPECT_EQ(cp.campaignFingerprint, original_.campaignFingerprint);
    EXPECT_EQ(cp.shardIndex, original_.shardIndex);
    EXPECT_EQ(cp.shardCount, original_.shardCount);
    EXPECT_EQ(cp.rangeBegin, original_.rangeBegin);
    EXPECT_EQ(cp.rangeEnd, original_.rangeEnd);
    EXPECT_EQ(cp.nextChip, original_.nextChip);
    EXPECT_EQ(encodeBinary(cp.accumulator), refAccumulator_);
}

TEST_F(CheckpointFuzzTest, EveryTruncationIsRejected)
{
    // A truncated file can never carry the full payload, so every
    // prefix must throw — this is the torn-write case the atomic
    // rename prevents, simulated byte by byte.
    for (std::size_t len = 0; len < good_.size();
         len += std::max<std::size_t>(1, good_.size() / 200)) {
        writeBytes(path_, good_.substr(0, len));
        EXPECT_THROW(readCheckpointFile(path_), SnapshotError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST_F(CheckpointFuzzTest, SingleByteFlipsNeverCorruptStatistics)
{
    Rng rng(7);
    for (int trial = 0; trial < 400; ++trial) {
        std::string mutated = good_;
        const std::size_t pos = rng.next() % mutated.size();
        const auto mask =
            static_cast<char>(1 << (rng.next() % 8));
        mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
        expectRejectedOrAccumulatorIntact(mutated);
    }
}

TEST_F(CheckpointFuzzTest, RandomGarbageIsRejected)
{
    Rng rng(13);
    for (int trial = 0; trial < 100; ++trial) {
        std::string garbage(rng.next() % 256, '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng.next() & 0xFF);
        writeBytes(path_, garbage);
        EXPECT_THROW(readCheckpointFile(path_), SnapshotError);
    }
}

TEST_F(CheckpointFuzzTest, InvalidCoordinatesAreRejected)
{
    // Structurally valid snapshots with incoherent coordinates must
    // be refused by the validator, not trusted downstream.
    ShardCheckpoint bad = original_;
    bad.nextChip = bad.rangeEnd + 1; // cursor past the range
    ASSERT_TRUE(writeCheckpointFile(path_, bad));
    EXPECT_THROW(readCheckpointFile(path_), SnapshotError);

    bad = original_;
    bad.shardIndex = bad.shardCount; // index out of range
    ASSERT_TRUE(writeCheckpointFile(path_, bad));
    EXPECT_THROW(readCheckpointFile(path_), SnapshotError);

    bad = original_;
    bad.rangeEnd = bad.rangeBegin - 1; // inverted range
    bad.nextChip = bad.rangeEnd;
    ASSERT_TRUE(writeCheckpointFile(path_, bad));
    EXPECT_THROW(readCheckpointFile(path_), SnapshotError);
}

} // namespace
} // namespace eval
