/**
 * @file
 * Shard worker: runs one contiguous chip-id slice of the campaign
 * with bounded memory and crash-safe checkpoints.
 *
 * The worker manufactures chips lazily (ExperimentContext::chip) and
 * evicts each block's chips — with their core models, fuzzy
 * controllers and static configs — after folding the block into the
 * accumulator, so peak RSS is bounded by the block size, never the
 * population.  At every block boundary it atomically rewrites its
 * checkpoint ("shard_checkpoint" v2); a SIGKILL at any instant loses
 * at most one block of work, and --resume replays from the checkpoint
 * to a byte-identical final result (tests/shard/checkpoint_resume).
 *
 * Exit codes: 0 done, 2 usage/config error, 3 interrupted (graceful
 * stop hook), 4 corrupt or mismatched checkpoint/result (the "clean
 * error" path for torn files — never a crash).
 */

#pragma once

#include <cstdint>
#include <string>

#include "shard/campaign.hh"
#include "shard/plan.hh"

namespace eval {

constexpr int kShardExitOk = 0;
constexpr int kShardExitConfig = 2;
constexpr int kShardExitInterrupted = 3;
constexpr int kShardExitCorrupt = 4;

/** One worker invocation (one shard of one campaign). */
struct ShardWorkerOptions
{
    CampaignConfig campaign;
    ShardSpec spec;
    /** Directory for results/checkpoints/status (created on demand;
     *  shared by all shards of the run). */
    std::string outDir;
    /** Chips per block: the checkpoint cadence AND the memory bound
     *  (a block's chips stay resident until its fold completes). */
    std::uint64_t checkpointEvery = 16;
    bool resume = false;
    bool binarySnapshots = true;

    /** Test hook: stop gracefully (exit 3, checkpoint intact) once
     *  this many chips were processed this invocation; 0 = off. */
    std::uint64_t stopAfterChips = 0;
    /** Smoke-test hook: raise(SIGKILL) after folding this many chips,
     *  *before* the block's checkpoint is written — the harshest
     *  resume case (stale checkpoint, dead process); 0 = off.
     *  Wired to EVAL_SHARD_ABORT_AFTER by eval_cli. */
    std::uint64_t killAfterChips = 0;
};

/** Result/checkpoint file layout inside the run directory. */
std::string shardResultPath(const std::string &outDir,
                            std::uint32_t shardIndex);
std::string shardCheckpointPath(const std::string &outDir,
                                std::uint32_t shardIndex);

/**
 * Load shard @p shardIndex's completed result for @p campaign.
 * Throws SnapshotError when missing, corrupt, or from a different
 * campaign/shard-count.
 */
CampaignAccumulator readShardResult(const CampaignConfig &campaign,
                                    std::uint32_t shardIndex,
                                    std::uint32_t shardCount,
                                    const std::string &outDir);

/** Whether a valid completed result for this shard already exists
 *  (the supervisor's resume fast-path). */
bool shardResultUsable(const CampaignConfig &campaign,
                       std::uint32_t shardIndex,
                       std::uint32_t shardCount,
                       const std::string &outDir);

/** Run one shard to completion (or interruption); see exit codes. */
int runShardWorker(const ShardWorkerOptions &opts);

} // namespace eval
