/** Randomized robustness of the campaign-checkpoint codec: arbitrary
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
CampaignCheckpoint
makeCheckpoint()
{
    CampaignAccumulator acc(0);
    Rng rng(42);
    for (std::uint64_t chip = 0; chip < 4; ++chip) {
        ChipCampaignResult r;
        for (std::size_t e = 0; e < kNumVoltageEnvs; ++e)
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                r.outcomes[e][o] = rng.next() % 7;
        acc.addChip(chip, r);
    }
    CampaignCheckpoint cp;
    cp.campaignFingerprint = "fuzz-campaign;scheme=Exh-Dyn";
    cp.chips = 12;
    cp.nextChip = 4;
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
            const CampaignCheckpoint cp = readCheckpointFile(path_);
            EXPECT_EQ(encodeBinary(cp.accumulator), refAccumulator_)
                << "decoded checkpoint carries silently-corrupted "
                   "statistics";
        } catch (const SnapshotError &) {
            // The expected outcome for almost every mutation.
        }
    }

    std::string path_;
    CampaignCheckpoint original_;
    std::string good_;
    std::string refAccumulator_;
};

TEST_F(CheckpointFuzzTest, RoundTripsWhenUntouched)
{
    const CampaignCheckpoint cp = readCheckpointFile(path_);
    EXPECT_EQ(cp.campaignFingerprint, original_.campaignFingerprint);
    EXPECT_EQ(cp.chips, original_.chips);
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

TEST_F(CheckpointFuzzTest, OutOfRangeCursorIsRejected)
{
    // Structurally valid snapshots whose cursor lies outside the
    // population must be refused by the validator, not trusted
    // downstream.
    CampaignCheckpoint bad = original_;
    bad.nextChip = bad.chips + 1; // cursor past the population
    ASSERT_TRUE(writeCheckpointFile(path_, bad));
    EXPECT_THROW(readCheckpointFile(path_), SnapshotError);

    bad = original_;
    bad.chips = bad.nextChip - 1; // population shrunk below the cursor
    ASSERT_TRUE(writeCheckpointFile(path_, bad));
    EXPECT_THROW(readCheckpointFile(path_), SnapshotError);

    // The edge the codec must keep accepting: a finished campaign.
    bad = original_;
    bad.nextChip = bad.chips;
    ASSERT_TRUE(writeCheckpointFile(path_, bad));
    EXPECT_EQ(readCheckpointFile(path_).nextChip, bad.chips);
}

} // namespace
} // namespace eval
