/**
 * @file
 * Versioned snapshot envelope and codecs for the validation
 * subsystem.
 *
 * A snapshot is a JsonValue payload wrapped in an envelope carrying
 * the container magic, the container format version, and the payload
 * kind + kind version:
 *
 *   {"magic": "EVALSNAP", "format_version": 1,
 *    "kind": "chip", "kind_version": 1, "payload": {...}}
 *
 * Two byte-level encodings of the same value tree exist:
 *  - text: canonical JSON (JsonValue::dump) — human-diffable, doubles
 *    round-trip via %.17g;
 *  - binary: a compact tagged encoding where doubles are stored as
 *    their raw 8 bytes (bit-exact by construction) and integers as
 *    zigzag varints.
 *
 * decode/validate failures throw SnapshotError, never abort: a stale
 * or corrupt snapshot is an expected, reportable condition.
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "valid/json_value.hh"

namespace eval {

/** Envelope/codec violation (bad magic, wrong version, corrupt data). */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Container format version of the envelope itself. */
constexpr std::uint32_t kSnapshotFormatVersion = 1;

/** Wrap @p payload in a versioned envelope. */
JsonValue makeSnapshot(const std::string &kind,
                       std::uint32_t kindVersion, JsonValue payload);

/**
 * Check the envelope (magic, format version, kind, kind version) and
 * return the payload.  Throws SnapshotError with a precise message on
 * any mismatch — version skew must be loud, not silently tolerated.
 */
const JsonValue &snapshotPayload(const JsonValue &snapshot,
                                 const std::string &expectKind,
                                 std::uint32_t expectKindVersion);

/** Compact binary encoding of a value tree (doubles bit-exact). */
std::string encodeBinary(const JsonValue &value);

/** Decode encodeBinary output; throws SnapshotError on corruption. */
JsonValue decodeBinary(std::string_view bytes);

/** Write/read binary snapshots on disk.  writeFile returns false
 *  (with a warn) on IO failure; readFile throws SnapshotError,
 *  including on a file that is not a binary snapshot. */
bool writeSnapshotFile(const std::string &path, const JsonValue &snapshot);
JsonValue readSnapshotFile(const std::string &path);

/** FNV-1a over a byte string: the digest primitive used to pin large
 *  payloads (variation fields, decision vectors) in golden files. */
std::uint64_t fnv1a(std::string_view bytes);

/**
 * Digest folded to 53 bits so it is exactly representable as a double
 * golden metric (goldens store doubles; 2^53 distinct values retain
 * all practical collision-detection power).
 */
double digest53(std::string_view bytes);

} // namespace eval

