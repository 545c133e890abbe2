/**
 * @file
 * Campaign checkpoint schema (v3) on top of the snapshot envelope.
 *
 * The Fig 13 campaign loop persists its progress as a
 * "shard_checkpoint" snapshot: the campaign fingerprint, the
 * population size, the resume cursor (nextChip), and the serialized
 * accumulator payload, plus an integrity digest over the
 * binary-encoded accumulator payload, checked on read, so a torn or
 * bit-flipped checkpoint is rejected with a SnapshotError instead of
 * silently resuming from corrupt statistics.  Version 3 dropped the
 * shard coordinates of v2; older versions are refused loudly by the
 * envelope's kind-version check.
 *
 * Writes go through a temp-file + rename so a process killed
 * mid-write can never leave a half-written checkpoint under the
 * final name — the property shard_checkpoint_resume_test relies on.
 */

#pragma once

#include <cstdint>
#include <string>

#include "valid/json_value.hh"

namespace eval {

/** Kind version of "shard_checkpoint" payloads (v3: no shard
 *  coordinates; cursor bounded by the population size). */
constexpr std::uint32_t kCampaignCheckpointVersion = 3;

/** Progress of one campaign at a block boundary. */
struct CampaignCheckpoint
{
    /** CampaignConfig::fingerprint() of the producing run; resume
     *  refuses a checkpoint from a different campaign. */
    std::string campaignFingerprint;
    std::uint64_t chips = 0;    ///< population size
    std::uint64_t nextChip = 0; ///< resume cursor in [0, chips]
    /** Serialized CampaignAccumulator payload covering
     *  [0, nextChip). */
    JsonValue accumulator;
};

/** Wrap @p cp in a "shard_checkpoint" v3 envelope (computes the
 *  integrity digest). */
JsonValue toSnapshot(const CampaignCheckpoint &cp);

/** Unwrap and validate; throws SnapshotError on version skew, a
 *  malformed payload, an out-of-range cursor, or a digest mismatch. */
CampaignCheckpoint checkpointFromSnapshot(const JsonValue &snapshot);

/**
 * Atomic write (temp file in the same directory + rename).  Returns
 * false with a warn on IO failure, mirroring writeSnapshotFile.
 */
bool writeCheckpointFile(const std::string &path,
                         const CampaignCheckpoint &cp);

/** Read + validate a checkpoint file; throws SnapshotError (with the
 *  offending path in the message) on any corruption. */
CampaignCheckpoint readCheckpointFile(const std::string &path);

} // namespace eval
