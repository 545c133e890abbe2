/**
 * @file
 * The one Fig 13 campaign loop: block fan-out over the global pool,
 * serial fold in chip order, and (optionally) checkpoint.
 *
 * runMonolithic is the loop with no checkpoint directory; `eval_cli
 * fig13` runs it with one, so an interrupted campaign resumes from
 * its last block boundary to outputs byte-identical to an
 * uninterrupted run.  (The file keeps its historical name: the
 * frozen perfbench driver includes it for runMonolithic.)
 *
 * Exit codes: 0 done, 2 usage/config/IO error, 3 interrupted (the
 * stopAfterChips hook), 4 corrupt or mismatched checkpoint (the
 * "clean error" path for torn files — never a crash, never a silent
 * restart).
 */

#pragma once

#include <cstdint>
#include <string>

#include "shard/campaign.hh"

namespace eval {

constexpr int kCampaignExitOk = 0;
constexpr int kCampaignExitConfig = 2;
constexpr int kCampaignExitInterrupted = 3;
constexpr int kCampaignExitCorrupt = 4;

/** One campaign run. */
struct CampaignLoopOptions
{
    CampaignConfig campaign;
    /** Directory for the checkpoint and the merged outputs (created
     *  on demand); "" = no checkpoints, no files. */
    std::string outDir;
    /** Chips per block: the checkpoint cadence AND the memory bound
     *  (a block's chips stay resident until its fold completes). */
    std::uint64_t checkpointEvery = 16;
    /** Continue from the checkpoint in outDir, if there is one. */
    bool resume = false;
    /** Test hook: stop (exit 3, checkpoint intact) once this many
     *  chips were processed this invocation; 0 = off. */
    std::uint64_t stopAfterChips = 0;
};

/** File layout inside the run directory. */
std::string campaignCheckpointPath(const std::string &outDir);
std::string mergedSnapshotPath(const std::string &outDir);
std::string mergedStatsPath(const std::string &outDir);

/**
 * Run the campaign (from the checkpoint when resuming) and, with an
 * outDir, checkpoint after every block and write merged.snap +
 * merged.stats.json (atomic renames) once every chip is folded.
 * @p acc receives the chips folded so far.  Returns an exit code.
 */
int runCampaignLoop(const CampaignLoopOptions &opts,
                    CampaignAccumulator &acc);

/** runCampaignLoop with no checkpoint directory: every chip in id
 *  order, in memory. */
CampaignAccumulator runMonolithic(const CampaignConfig &campaign);

} // namespace eval
