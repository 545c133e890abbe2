#include "shard/worker.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>

#include "exec/thread_pool.hh"
#include "util/logging.hh"
#include "valid/checkpoint.hh"
#include "valid/snapshot.hh"

namespace eval {

namespace fs = std::filesystem;

namespace {

std::string
shardFile(const std::string &outDir, std::uint32_t shardIndex,
          const char *suffix)
{
    return (fs::path(outDir) /
            ("shard-" + std::to_string(shardIndex) + suffix))
        .string();
}

} // namespace

std::string
shardResultPath(const std::string &outDir, std::uint32_t shardIndex)
{
    return shardFile(outDir, shardIndex, ".result.snap");
}

std::string
shardCheckpointPath(const std::string &outDir, std::uint32_t shardIndex)
{
    return shardFile(outDir, shardIndex, ".ckpt.snap");
}

CampaignAccumulator
readShardResult(const CampaignConfig &campaign,
                std::uint32_t shardIndex, std::uint32_t shardCount,
                const std::string &outDir)
{
    // A completed result is a checkpoint whose cursor reached the end
    // of its range: one schema, one validator, one fuzz surface.
    const ShardCheckpoint cp =
        readCheckpointFile(shardResultPath(outDir, shardIndex));
    const ShardRange range = shardRangeFor(
        static_cast<std::uint64_t>(campaign.experiment.chips),
        ShardSpec{shardIndex, shardCount});
    if (cp.campaignFingerprint != campaign.fingerprint())
        throw SnapshotError("shard result is from a different "
                            "campaign: " +
                            cp.campaignFingerprint);
    if (cp.shardIndex != shardIndex || cp.shardCount != shardCount ||
        cp.rangeBegin != range.begin || cp.rangeEnd != range.end)
        throw SnapshotError("shard result coordinates disagree with "
                            "the shard plan");
    if (cp.nextChip != cp.rangeEnd)
        throw SnapshotError("shard result is incomplete (cursor " +
                            std::to_string(cp.nextChip) + " of " +
                            std::to_string(cp.rangeEnd) + ")");
    CampaignAccumulator acc =
        CampaignAccumulator::fromPayload(cp.accumulator);
    if (acc.firstChip() != range.begin || acc.nextChip() != range.end)
        throw SnapshotError(
            "shard result accumulator range disagrees with its "
            "envelope");
    return acc;
}

bool
shardResultUsable(const CampaignConfig &campaign,
                  std::uint32_t shardIndex, std::uint32_t shardCount,
                  const std::string &outDir)
{
    try {
        readShardResult(campaign, shardIndex, shardCount, outDir);
        return true;
    } catch (const SnapshotError &) {
        return false;
    }
}

int
runShardWorker(const ShardWorkerOptions &opts)
{
    const ShardSpec &spec = opts.spec;
    if (spec.count == 0 || spec.index >= spec.count ||
        opts.campaign.experiment.chips < 0) {
        warn("shard worker: bad shard spec or population");
        return kShardExitConfig;
    }
    const auto total =
        static_cast<std::uint64_t>(opts.campaign.experiment.chips);
    const ShardRange range = shardRangeFor(total, spec);
    const std::string fp = opts.campaign.fingerprint();

    std::error_code ec;
    fs::create_directories(opts.outDir, ec);
    const std::string resultPath =
        shardResultPath(opts.outDir, spec.index);
    const std::string ckptPath =
        shardCheckpointPath(opts.outDir, spec.index);

    if (opts.resume &&
        shardResultUsable(opts.campaign, spec.index, spec.count,
                          opts.outDir)) {
        inform("shard ", formatShardSpec(spec),
               " already complete, nothing to resume");
        return kShardExitOk;
    }

    // Recover the accumulator + cursor from the checkpoint, if any.
    // A corrupt/truncated/mismatched checkpoint is a *clean* error:
    // the operator must decide (delete it or fix the invocation),
    // because silently restarting would hide lost statistics.
    CampaignAccumulator acc(range.begin);
    std::uint64_t cursor = range.begin;
    if (opts.resume && fs::exists(ckptPath)) {
        try {
            const ShardCheckpoint cp = readCheckpointFile(ckptPath);
            if (cp.campaignFingerprint != fp)
                throw SnapshotError(
                    "checkpoint is from a different campaign");
            if (cp.shardIndex != spec.index ||
                cp.shardCount != spec.count ||
                cp.rangeBegin != range.begin ||
                cp.rangeEnd != range.end)
                throw SnapshotError("checkpoint coordinates disagree "
                                    "with the shard plan");
            acc = CampaignAccumulator::fromPayload(cp.accumulator);
            if (acc.firstChip() != range.begin ||
                acc.nextChip() != cp.nextChip)
                throw SnapshotError("checkpoint accumulator range "
                                    "disagrees with its cursor");
            cursor = cp.nextChip;
            inform("shard ", formatShardSpec(spec), " resuming at chip ",
                   cursor, " of [", range.begin, ", ", range.end, ")");
        } catch (const SnapshotError &e) {
            warn("cannot resume shard ", formatShardSpec(spec), ": ",
                 e.what());
            return kShardExitCorrupt;
        }
    }

    // A fresh context per worker: chip i is pure in (seed, i), so
    // this context produces the monolithic run's chips exactly,
    // manufactured lazily one block at a time.
    ExperimentContext ctx(opts.campaign.experiment);

    const std::uint64_t blockChips =
        std::max<std::uint64_t>(1, opts.checkpointEvery);
    std::uint64_t processed = 0;
    while (cursor < range.end) {
        const std::uint64_t blockEnd =
            std::min(cursor + blockChips, range.end);
        const auto blockSize =
            static_cast<std::size_t>(blockEnd - cursor);

        // Parallel fan-out over the block, serial fold in chip order
        // (slot writes + ordered accumulation, PR 2 discipline).
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

        cursor = blockEnd;
        processed += blockSize;

        if (opts.killAfterChips && processed >= opts.killAfterChips) {
            // Smoke-test hook: die like the OOM killer would, before
            // this block's checkpoint lands — resume must recompute
            // the block and still match bit-for-bit.
            std::raise(SIGKILL);
        }

        const ShardCheckpoint cp{fp,          spec.index, spec.count,
                                 range.begin, range.end,  cursor,
                                 acc.toPayload()};
        if (!writeCheckpointFile(ckptPath, cp)) {
            warn("shard ", formatShardSpec(spec),
                 ": cannot write checkpoint");
            return kShardExitConfig;
        }

        if (opts.stopAfterChips && processed >= opts.stopAfterChips &&
            cursor < range.end) {
            inform("shard ", formatShardSpec(spec),
                   " stopping after ", processed,
                   " chips (checkpoint at ", cursor, ")");
            return kShardExitInterrupted;
        }
    }

    const ShardCheckpoint done{fp,          spec.index, spec.count,
                               range.begin, range.end,  range.end,
                               acc.toPayload()};
    if (!writeCheckpointFile(resultPath, done)) {
        warn("shard ", formatShardSpec(spec),
             ": cannot write result");
        return kShardExitConfig;
    }
    std::remove(ckptPath.c_str());
    return kShardExitOk;
}

} // namespace eval
