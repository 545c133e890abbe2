/**
 * @file
 * The Fig 13 campaign driver behind the benchmark: set-up (context +
 * characterization of the pinned suite), the campaign loop (the same
 * 16-chip block fan-out, in-order fold and evictChip loop as
 * runMonolithic), and a traced variant of the per-chip unit that times
 * each layer's public entry points from outside the library.
 *
 * Everything here goes through public library calls only:
 * ExperimentContext, CharacterizationCache::get, runCampaignChip,
 * CampaignAccumulator, DynamicController and the global ThreadPool.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/environment.hh"
#include "shard/campaign.hh"

namespace perfbench {

/** Chips per fan-out block (runMonolithic's kBlock). */
constexpr std::size_t kBlock = 16;

/** The experiment every workload runs: library defaults, the full
 *  24-app suite pinned by name (never EVAL_APPS / fromEnv). */
eval::ExperimentConfig makeConfig(std::uint64_t seed, int chips);

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

/**
 * Cold start: build the context and characterize every selected app,
 * one pool task per app.  When @p appSeconds is non-null it receives
 * each app's host time of CharacterizationCache::get, in app order.
 */
std::unique_ptr<eval::ExperimentContext>
setUp(const eval::ExperimentConfig &cfg, std::vector<double> *appSeconds);

/** Per-chip layer timings of the traced unit (all in seconds). */
struct ChipLedger
{
    double taskS = 0.0;          ///< whole per-chip task
    double manufactureS = 0.0;   ///< ExperimentContext::chip
    std::vector<double> modelBuildS;   ///< first coreModel per core
    std::vector<double> trainS;        ///< first coreFuzzy per key
    std::vector<double> invokeS;       ///< DynamicController::adaptPhase
};

/** Result of one campaign pass over chips [0, n). */
struct CampaignRun
{
    eval::CampaignAccumulator acc{0};
    /** Per-chip results in chip order (for re-checks). */
    std::vector<eval::ChipCampaignResult> chips;
    /** Chips whose unit threw or returned zero invocations. */
    std::uint64_t failed = 0;
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Traced passes only: one ledger per chip. */
    std::vector<ChipLedger> ledgers;
};

/** Untraced pass: runCampaignChip per chip on the global pool. */
CampaignRun runCampaign(eval::ExperimentContext &ctx,
                        const eval::CampaignConfig &campaign,
                        std::size_t chips);

/**
 * Traced pass, same loop.  Each chip runs runCampaignChip re-stated
 * with a timer around each layer call (manufacture, the four
 * core-model builds, each FC training, each controller invocation)
 * and fills its ledger.  The result must be identical; callers check
 * that through the campaign digest.
 */
CampaignRun runTracedCampaign(eval::ExperimentContext &ctx,
                              const eval::CampaignConfig &campaign,
                              std::size_t chips);

/** Controller invocations a chip must make: one per phase of every
 *  app in every voltage environment. */
std::uint64_t expectedInvocations(eval::ExperimentContext &ctx);

/** min over the voltage envs of (NoChange + LowFreq) / invocations. */
double goodShareMin(const eval::CampaignAccumulator &acc);

} // namespace perfbench
