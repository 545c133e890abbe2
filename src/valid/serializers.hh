/**
 * @file
 * Snapshot encoders for the simulator's core state: variation maps,
 * manufactured chips, and optimizer decisions.  The golden suites
 * hash these bytes (snapshotDigest), so an encoder's output is part
 * of the behaviour contract; nothing decodes them back into model
 * objects.  The only snapshot that is read back is the Fig 13
 * campaign checkpoint (valid/checkpoint.hh).
 *
 * Kind versions bump whenever a payload's meaning changes, so a
 * golden digest moves when the encoding does.
 */

#pragma once

#include "core/optimizer.hh"
#include "util/random.hh"
#include "valid/snapshot.hh"
#include "variation/chip.hh"
#include "variation/variation_map.hh"

namespace eval {

JsonValue toJson(const Rng::State &state);
JsonValue toJson(const ProcessParams &p);

/** Kind "variation_map". */
JsonValue toSnapshot(const VariationMap &map);

/** Kind "chip"; nests the chip's variation_map snapshot. */
JsonValue toSnapshot(const Chip &chip);

JsonValue toJson(const OperatingPoint &op);

/** Kind "adaptation_result". */
JsonValue toSnapshot(const AdaptationResult &result);

} // namespace eval
