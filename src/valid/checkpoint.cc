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
        throw SnapshotError(std::string("shard checkpoint missing '") +
                            key + "'");
    return obj.at(key).asUint();
}

ShardCheckpoint
checkpointFromPayload(const JsonValue &payload)
{
    ShardCheckpoint cp;
    if (!payload.has("campaign"))
        throw SnapshotError("shard checkpoint missing 'campaign'");
    cp.campaignFingerprint = payload.at("campaign").asString();
    cp.shardIndex = static_cast<std::uint32_t>(
        fieldUint(payload, "shard_index"));
    cp.shardCount = static_cast<std::uint32_t>(
        fieldUint(payload, "shard_count"));
    cp.rangeBegin = fieldUint(payload, "range_begin");
    cp.rangeEnd = fieldUint(payload, "range_end");
    cp.nextChip = fieldUint(payload, "next_chip");
    if (!payload.has("accumulator") || !payload.has("integrity"))
        throw SnapshotError(
            "shard checkpoint missing accumulator/integrity");
    cp.accumulator = payload.at("accumulator");

    if (cp.shardCount == 0 || cp.shardIndex >= cp.shardCount)
        throw SnapshotError("shard checkpoint has impossible shard "
                            "coordinates");
    if (cp.rangeEnd < cp.rangeBegin || cp.nextChip < cp.rangeBegin ||
        cp.nextChip > cp.rangeEnd)
        throw SnapshotError(
            "shard checkpoint cursor outside its chip range");

    const double expect = payload.at("integrity").asDouble();
    const double got = accumulatorDigest(cp.accumulator);
    // Any differing digest is rejected, a NaN one included.
    if (!std::equal_to<double>{}(expect, got))
        throw SnapshotError(
            "shard checkpoint integrity digest mismatch (stored " +
            formatExactDouble(expect) + ", recomputed " +
            formatExactDouble(got) + ")");
    return cp;
}

} // namespace

JsonValue
toSnapshot(const ShardCheckpoint &cp)
{
    JsonValue payload = JsonValue::object();
    payload.set("campaign", cp.campaignFingerprint);
    payload.set("shard_index",
                static_cast<std::uint64_t>(cp.shardIndex));
    payload.set("shard_count",
                static_cast<std::uint64_t>(cp.shardCount));
    payload.set("range_begin", cp.rangeBegin);
    payload.set("range_end", cp.rangeEnd);
    payload.set("next_chip", cp.nextChip);
    payload.set("accumulator", cp.accumulator);
    payload.set("integrity", accumulatorDigest(cp.accumulator));
    return makeSnapshot(kKind, kShardCheckpointVersion,
                        std::move(payload));
}

ShardCheckpoint
checkpointFromSnapshot(const JsonValue &snapshot)
{
    const JsonValue &payload =
        snapshotPayload(snapshot, kKind, kShardCheckpointVersion);

    // Translate JsonValue's plain runtime_errors (wrong member type
    // after a bit flip, say) into this module's SnapshotError so
    // callers only ever see the one exception type.
    try {
        return checkpointFromPayload(payload);
    } catch (const SnapshotError &) {
        throw;
    } catch (const std::exception &e) {
        throw SnapshotError(
            std::string("shard checkpoint malformed: ") + e.what());
    }
}

bool
writeCheckpointFile(const std::string &path, const ShardCheckpoint &cp,
                    bool binary)
{
    // Temp-in-same-directory + rename: the final name either holds
    // the previous complete checkpoint or the new complete one,
    // never a prefix.  (writeSnapshotFile itself is not atomic.)
    const std::string tmp = path + ".tmp";
    if (!writeSnapshotFile(tmp, toSnapshot(cp), binary))
        return false;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot rename checkpoint into place: ", path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

ShardCheckpoint
readCheckpointFile(const std::string &path)
{
    try {
        return checkpointFromSnapshot(readSnapshotFile(path));
    } catch (const SnapshotError &e) {
        throw SnapshotError("checkpoint " + path + ": " + e.what());
    }
}

} // namespace eval
