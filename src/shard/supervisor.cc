#include "shard/supervisor.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "exec/thread_pool.hh"
#include "util/logging.hh"
#include "valid/checkpoint.hh"
#include "valid/snapshot.hh"

namespace eval {

namespace fs = std::filesystem;

namespace {

/** Write @p bytes to @p path atomically (tmp + rename). */
bool
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("cannot open ", tmp, " for writing");
        return false;
    }
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot write ", path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

/**
 * Rebuild the accumulator from the checkpoint at @p path.  Throws
 * SnapshotError when the file is corrupt or belongs to another
 * campaign: the operator must decide (delete it or fix the
 * invocation), because silently restarting would hide lost work.
 */
CampaignAccumulator
resumeFrom(const std::string &path, const std::string &fingerprint,
           std::uint64_t chips)
{
    const CampaignCheckpoint cp = readCheckpointFile(path);
    if (cp.campaignFingerprint != fingerprint)
        throw SnapshotError("checkpoint is from a different campaign");
    if (cp.chips != chips)
        throw SnapshotError(
            "checkpoint population disagrees with the campaign");
    CampaignAccumulator acc =
        CampaignAccumulator::fromPayload(cp.accumulator);
    if (acc.firstChip() != 0 || acc.nextChip() != cp.nextChip)
        throw SnapshotError(
            "checkpoint accumulator range disagrees with its cursor");
    return acc;
}

} // namespace

std::string
campaignCheckpointPath(const std::string &outDir)
{
    return (fs::path(outDir) / "campaign.ckpt.snap").string();
}

std::string
mergedSnapshotPath(const std::string &outDir)
{
    return (fs::path(outDir) / "merged.snap").string();
}

std::string
mergedStatsPath(const std::string &outDir)
{
    return (fs::path(outDir) / "merged.stats.json").string();
}

int
runCampaignLoop(const CampaignLoopOptions &opts, CampaignAccumulator &acc)
{
    if (opts.campaign.experiment.chips < 0) {
        warn("campaign: negative population");
        return kCampaignExitConfig;
    }
    const auto total =
        static_cast<std::uint64_t>(opts.campaign.experiment.chips);
    const bool durable = !opts.outDir.empty();
    const std::string ckptPath =
        durable ? campaignCheckpointPath(opts.outDir) : "";
    const std::string fingerprint = opts.campaign.fingerprint();

    acc = CampaignAccumulator(0);
    if (durable) {
        std::error_code ec;
        fs::create_directories(opts.outDir, ec);
        if (opts.resume && fs::exists(ckptPath)) {
            try {
                acc = resumeFrom(ckptPath, fingerprint, total);
            } catch (const SnapshotError &e) {
                warn("cannot resume campaign: ", e.what());
                return kCampaignExitCorrupt;
            }
            inform("campaign resuming at chip ", acc.nextChip(), " of ",
                   total);
        }
    }

    // Chips are manufactured lazily, one block at a time; chip i is
    // pure in (seed, i), so a resumed run rebuilds exactly the chips
    // an uninterrupted one would have.
    ExperimentContext ctx(opts.campaign.experiment);
    const std::uint64_t blockChips =
        std::max<std::uint64_t>(1, opts.checkpointEvery);
    std::uint64_t processed = 0;
    while (acc.nextChip() < total) {
        const std::uint64_t cursor = acc.nextChip();
        const std::uint64_t blockEnd = std::min(cursor + blockChips, total);
        const auto blockSize =
            static_cast<std::size_t>(blockEnd - cursor);

        // Parallel fan-out over the block, serial fold in chip order
        // (slot writes + ordered accumulation).
        const auto results = globalPool().parallelMap(
            blockSize, [&](std::size_t i) {
                return runCampaignChip(
                    ctx, opts.campaign,
                    static_cast<std::size_t>(cursor) + i);
            });
        for (std::size_t i = 0; i < blockSize; ++i)
            acc.addChip(cursor + i, results[i]);

        // Bound memory: this block's chips (and their model/fuzzy/
        // static-config cache entries) are dead weight now.
        for (std::uint64_t id = cursor; id < blockEnd; ++id)
            ctx.evictChip(static_cast<std::size_t>(id));
        processed += blockSize;

        if (durable &&
            !writeCheckpointFile(ckptPath,
                                 CampaignCheckpoint{fingerprint, total,
                                                    blockEnd,
                                                    acc.toPayload()})) {
            warn("campaign: cannot write checkpoint ", ckptPath);
            return kCampaignExitConfig;
        }
        if (opts.stopAfterChips && processed >= opts.stopAfterChips &&
            blockEnd < total) {
            inform("campaign stopping after ", processed,
                   " chips (checkpoint at ", blockEnd, ")");
            return kCampaignExitInterrupted;
        }
    }

    if (durable &&
        !(writeFileAtomic(mergedSnapshotPath(opts.outDir),
                          encodeBinary(acc.toSnapshot())) &&
          writeFileAtomic(mergedStatsPath(opts.outDir), acc.statsJson())))
        return kCampaignExitConfig;
    return kCampaignExitOk;
}

CampaignAccumulator
runMonolithic(const CampaignConfig &campaign)
{
    CampaignLoopOptions opts;
    opts.campaign = campaign;
    CampaignAccumulator acc;
    const int rc = runCampaignLoop(opts, acc);
    EVAL_ASSERT(rc == kCampaignExitOk,
                "an in-memory campaign cannot fail but on a negative "
                "population");
    return acc;
}

} // namespace eval
