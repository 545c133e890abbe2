#include "valid/checkpoint.hh"

#include <cstdio>
#include <functional>

#include "util/logging.hh"
#include "valid/snapshot.hh"

namespace eval {

namespace {

constexpr const char *kKind = "shard_checkpoint";

/** Digest pinning the accumulator payload byte-exactly. */
double
accumulatorDigest(const JsonValue &accumulator)
{
    return digest53(encodeBinary(accumulator));
}

std::uint64_t
fieldUint(const JsonValue &obj, const char *key)
{
    if (!obj.has(key))
        throw SnapshotError(std::string("campaign checkpoint missing '") +
                            key + "'");
    return obj.at(key).asUint();
}

CampaignCheckpoint
checkpointFromPayload(const JsonValue &payload)
{
    CampaignCheckpoint cp;
    if (!payload.has("campaign"))
        throw SnapshotError("campaign checkpoint missing 'campaign'");
    cp.campaignFingerprint = payload.at("campaign").asString();
    cp.chips = fieldUint(payload, "chips");
    cp.nextChip = fieldUint(payload, "next_chip");
    if (!payload.has("accumulator") || !payload.has("integrity"))
        throw SnapshotError(
            "campaign checkpoint missing accumulator/integrity");
    cp.accumulator = payload.at("accumulator");

    if (cp.nextChip > cp.chips)
        throw SnapshotError(
            "campaign checkpoint cursor past its population");

    const double expect = payload.at("integrity").asDouble();
    const double got = accumulatorDigest(cp.accumulator);
    // Any differing digest is rejected, a NaN one included.
    if (!std::equal_to<double>{}(expect, got))
        throw SnapshotError(
            "campaign checkpoint integrity digest mismatch (stored " +
            formatExactDouble(expect) + ", recomputed " +
            formatExactDouble(got) + ")");
    return cp;
}

} // namespace

JsonValue
toSnapshot(const CampaignCheckpoint &cp)
{
    JsonValue payload = JsonValue::object();
    payload.set("campaign", cp.campaignFingerprint);
    payload.set("chips", cp.chips);
    payload.set("next_chip", cp.nextChip);
    payload.set("accumulator", cp.accumulator);
    payload.set("integrity", accumulatorDigest(cp.accumulator));
    return makeSnapshot(kKind, kCampaignCheckpointVersion,
                        std::move(payload));
}

CampaignCheckpoint
checkpointFromSnapshot(const JsonValue &snapshot)
{
    const JsonValue &payload =
        snapshotPayload(snapshot, kKind, kCampaignCheckpointVersion);

    // Translate JsonValue's plain runtime_errors (wrong member type
    // after a bit flip, say) into this module's SnapshotError so
    // callers only ever see the one exception type.
    try {
        return checkpointFromPayload(payload);
    } catch (const SnapshotError &) {
        throw;
    } catch (const std::exception &e) {
        throw SnapshotError(
            std::string("campaign checkpoint malformed: ") + e.what());
    }
}

bool
writeCheckpointFile(const std::string &path, const CampaignCheckpoint &cp)
{
    // Temp-in-same-directory + rename: the final name either holds
    // the previous complete checkpoint or the new complete one,
    // never a prefix.  (writeSnapshotFile itself is not atomic.)
    const std::string tmp = path + ".tmp";
    if (!writeSnapshotFile(tmp, toSnapshot(cp)))
        return false;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot rename checkpoint into place: ", path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

CampaignCheckpoint
readCheckpointFile(const std::string &path)
{
    try {
        return checkpointFromSnapshot(readSnapshotFile(path));
    } catch (const SnapshotError &e) {
        throw SnapshotError("checkpoint " + path + ": " + e.what());
    }
}

} // namespace eval
