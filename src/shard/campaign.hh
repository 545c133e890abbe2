/**
 * @file
 * The Fig 13 population campaign: a per-chip unit of work that is a
 * pure function of (campaign config, chip id), and an accumulator that
 * folds per-chip results in chip-id order.
 *
 * Chip i is Rng::split-derived from (seed, i), so the unit's result
 * does not depend on which thread ran it, how the chips were blocked,
 * or whether the run was resumed from a checkpoint; the serial fold
 * in chip order then makes the stats JSON and the snapshot digest
 * byte-identical across thread counts and interruptions
 * (tests/shard/checkpoint_resume_test).  Per-chip tallies are u64
 * sums and the chip-binning histogram only takes weight-1 samples,
 * so a resumed fold reproduces an uninterrupted one exactly.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/controller.hh"
#include "core/environment.hh"
#include "util/statistics.hh"
#include "valid/json_value.hh"

namespace eval {

/** What to run: the experiment population plus the adaptation
 *  scheme driving the controller. */
struct CampaignConfig
{
    ExperimentConfig experiment;
    AdaptScheme scheme = AdaptScheme::FuzzyDyn;

    /** Fingerprint of every result-changing knob; a resume refuses
     *  a checkpoint with a different fingerprint. */
    std::string fingerprint() const;
};

/** Per-chip controller-outcome tallies across the voltage envs. */
struct ChipCampaignResult
{
    /** outcomes[env][RetuneOutcome] — fresh-retune invocations only,
     *  matching Fig 13 (saved-config reuses are not invocations). */
    std::array<OutcomeTally, kNumVoltageEnvs> outcomes{};

    std::uint64_t invocations() const;
    /** Fraction of invocations ending in NoChange (the chip runs at
     *  its tuned point without cuts); 1.0 when nothing retuned. */
    double goodShare() const;
};

/**
 * Run the campaign unit for one chip: ExperimentContext::adaptApps
 * under fig13Caps of each voltage env, env-major.  Pure in (campaign,
 * chip id): only per-chip caches of @p ctx are touched, so a fresh
 * context after a resume reproduces the uninterrupted result exactly.
 */
ChipCampaignResult runCampaignChip(ExperimentContext &ctx,
                                   const CampaignConfig &campaign,
                                   std::size_t chip);

/**
 * Order-preserving accumulator over a contiguous chip-id range.
 * addChip() must be fed chip ids in increasing order starting at
 * firstChip, so every run reproduces the one serial accumulation
 * order.
 */
class CampaignAccumulator
{
  public:
    explicit CampaignAccumulator(std::uint64_t firstChip = 0);

    std::uint64_t firstChip() const { return firstChip_; }
    /** One past the last accumulated chip id. */
    std::uint64_t nextChip() const { return nextChip_; }
    std::uint64_t chipCount() const { return nextChip_ - firstChip_; }

    /** Fold in chip @p chipId's result; must be nextChip(). */
    void addChip(std::uint64_t chipId, const ChipCampaignResult &r);

    std::uint64_t outcomeCount(std::size_t env,
                               RetuneOutcome outcome) const;
    std::uint64_t envInvocations(std::size_t env) const;
    const Histogram &goodShareHistogram() const { return hist_; }
    const SampleSet &goodShares() const { return shares_; }

    /** Serialize to / rebuild from a JSON payload (checkpoints).
     *  fromPayload throws SnapshotError on shape violations. */
    JsonValue toPayload() const;
    static CampaignAccumulator fromPayload(const JsonValue &payload);

    /** Wrap the payload in a "shard_result" snapshot envelope (the
     *  merged.snap format; the kind name predates the removal of
     *  process sharding and is kept so the bytes stay the same). */
    JsonValue toSnapshot() const;
    static CampaignAccumulator fromSnapshot(const JsonValue &snapshot);

    /** Canonical human-readable statistics document: per-env outcome
     *  tallies and shares, good-share percentiles, and the
     *  chip-binning histogram.  Byte-deterministic. */
    std::string statsJson() const;

    /** digest53 over the binary-encoded snapshot — the outcome
     *  digest the differential suite compares. */
    double digest() const;

  private:
    std::uint64_t firstChip_ = 0;
    std::uint64_t nextChip_ = 0;
    /** [env][outcome] fresh-retune tallies.  Plain integers: the fold
     *  is serial, so it needs no atomics. */
    std::array<OutcomeTally, kNumVoltageEnvs> outcomes_{};
    /** Chip-binning curve: one weight-1 sample per chip at its
     *  good-share (integer weights keep the rebuild from the shares
     *  exact). */
    Histogram hist_;
    /** Per-chip good shares in chip order (exact tail percentiles). */
    SampleSet shares_;
};

} // namespace eval
