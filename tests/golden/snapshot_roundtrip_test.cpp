/**
 * Bit-stability contract for the domain snapshot encoders: every
 * model snapshot must survive the JSON text encoding AND the compact
 * binary encoding unchanged, and re-serialization must be
 * byte-identical (the property the golden digests rely on).  Nothing
 * decodes these snapshots back into model objects; only the codecs
 * round-trip them.
 */

#include <gtest/gtest.h>

#include "util/random.hh"
#include "valid/serializers.hh"
#include "variation/chip.hh"

using namespace eval;

namespace {

/** Serialize -> text -> parse -> serialize must be byte-identical;
 *  same through the binary codec. */
void
expectStableEncodings(const JsonValue &snap)
{
    const JsonValue fromText = JsonValue::parse(snap.dump(2));
    EXPECT_EQ(fromText, snap);
    EXPECT_EQ(fromText.dump(2), snap.dump(2));
    const JsonValue fromBinary = decodeBinary(encodeBinary(snap));
    EXPECT_EQ(fromBinary, snap);
    EXPECT_EQ(encodeBinary(fromBinary), encodeBinary(snap));
}

Chip
makeChip(std::uint64_t seed)
{
    ChipFactory factory(ProcessParams{}, seed);
    return factory.manufacture();
}

} // namespace

TEST(SnapshotRoundTrip, RngState)
{
    Rng rng(123);
    rng.gaussian();          // populate the Box-Muller cache
    (void)rng.uniform();
    expectStableEncodings(toJson(rng.state()));
}

TEST(SnapshotRoundTrip, VariationMap)
{
    const Chip chip = makeChip(99);
    expectStableEncodings(toSnapshot(chip.map()));
}

TEST(SnapshotRoundTrip, Chip)
{
    // A chip nests its variation map (two full double fields) and
    // its rng state, whose cached gaussian may be any double.
    const Chip chip = makeChip(7);
    const JsonValue snap = toSnapshot(chip);
    expectStableEncodings(snap);
    // The same seed manufactures the same bytes.
    EXPECT_EQ(encodeBinary(toSnapshot(makeChip(7))), encodeBinary(snap));
}

TEST(SnapshotRoundTrip, AdaptationResult)
{
    AdaptationResult result;
    result.op.freq = 3.8125e9;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        result.op.knobs[i].vdd = 0.9 + 0.01 * static_cast<double>(i);
        result.op.knobs[i].vbb = -0.05;
        result.fmax[i] = 4.0e9 - 1e7 * static_cast<double>(i);
    }
    result.op.lowSlopeFu = true;
    result.op.smallQueue = false;
    result.feasible = true;
    result.predictedPerf = 2.34e9;
    result.predictedPe = 1.0 / 3.0e6;
    expectStableEncodings(toSnapshot(result));
}
