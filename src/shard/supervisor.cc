#include "shard/supervisor.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "exec/subprocess.hh"
#include "exec/thread_pool.hh"
#include "shard/trace_merge.hh"
#include "shard/worker.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"
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

} // namespace

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

CampaignAccumulator
mergeShardResults(const CampaignConfig &campaign, std::uint32_t shards,
                  const std::string &outDir)
{
    EVAL_ASSERT(shards > 0, "merge needs at least one shard");
    // Shard 0 starts at chip 0 and each merge demands the next
    // contiguous range, so index order is the only order that
    // type-checks — and it reproduces the serial accumulation.
    CampaignAccumulator merged =
        readShardResult(campaign, 0, shards, outDir);
    for (std::uint32_t i = 1; i < shards; ++i)
        merged.merge(readShardResult(campaign, i, shards, outDir));
    return merged;
}

bool
writeMergedOutputs(const CampaignAccumulator &merged,
                   const std::string &outDir, bool binarySnapshots)
{
    std::error_code ec;
    fs::create_directories(outDir, ec);
    const JsonValue snap = merged.toSnapshot();
    const std::string snapBytes =
        binarySnapshots ? encodeBinary(snap) : snap.dump(2) + "\n";
    return writeFileAtomic(mergedSnapshotPath(outDir), snapBytes) &&
           writeFileAtomic(mergedStatsPath(outDir), merged.statsJson());
}

int
runShardSupervisor(const ShardSupervisorOptions &opts)
{
    if (opts.shards == 0 || opts.campaign.experiment.chips < 0) {
        warn("shard supervisor: bad shard count or population");
        return kShardExitConfig;
    }

    if (opts.traceSpans) {
        std::error_code ec;
        fs::create_directories(shardTraceDir(opts.outDir), ec);
    }

    if (opts.workerArgv.empty()) {
        // In-process mode (tests, benches): shards run sequentially,
        // each with its own fresh ExperimentContext inside
        // runShardWorker — the same isolation a forked worker gets,
        // minus the process boundary.
        for (std::uint32_t i = 0; i < opts.shards; ++i) {
            const ShardSpec spec{i, opts.shards};
            if (opts.resume &&
                shardResultUsable(opts.campaign, i, opts.shards,
                                  opts.outDir))
                continue;
            ShardWorkerOptions w;
            w.campaign = opts.campaign;
            w.spec = spec;
            w.outDir = opts.outDir;
            w.checkpointEvery = opts.checkpointEvery;
            w.resume = opts.resume;
            w.binarySnapshots = opts.binarySnapshots;
            int rc;
            if (opts.traceSpans) {
                // Scope the global tracer to this shard so the
                // per-shard files carry exactly this shard's spans —
                // the same isolation a forked worker gets for free.
                SpanTracer &tracer = SpanTracer::global();
                tracer.clear();
                tracer.setEnabled(true);
                rc = runShardWorker(w);
                tracer.setEnabled(false);
                tracer.writeJson(shardTracePath(opts.outDir, i));
                tracer.writeProfileJson(
                    shardProfilePath(opts.outDir, i));
                tracer.clear();
            } else {
                rc = runShardWorker(w);
            }
            if (rc != kShardExitOk) {
                warn("shard ", formatShardSpec(spec),
                     " failed with exit code ", rc);
                return rc;
            }
        }
    } else {
        // Forked mode: spawn every worker concurrently, reap all,
        // fail if any died (a signaled worker — e.g. the SIGKILL
        // smoke test — counts as failure; its checkpoint survives).
        std::vector<Subprocess> workers;
        std::vector<ShardSpec> specs;
        workers.reserve(opts.shards);
        for (std::uint32_t i = 0; i < opts.shards; ++i) {
            const ShardSpec spec{i, opts.shards};
            if (opts.resume &&
                shardResultUsable(opts.campaign, i, opts.shards,
                                  opts.outDir))
                continue;
            std::vector<std::string> argv = opts.workerArgv;
            if (opts.traceSpans) {
                argv.push_back("--trace-spans=" +
                               shardTracePath(opts.outDir, i));
                argv.push_back("--profile-out=" +
                               shardProfilePath(opts.outDir, i));
            }
            argv.push_back("--shard=" + formatShardSpec(spec));
            workers.push_back(Subprocess::spawn(argv));
            specs.push_back(spec);
        }
        bool allOk = true;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            const SubprocessResult r = workers[i].wait();
            if (!r.ok()) {
                allOk = false;
                if (r.signaled)
                    warn("shard ", formatShardSpec(specs[i]),
                         " killed by signal ", r.termSignal);
                else
                    warn("shard ", formatShardSpec(specs[i]),
                         " exited with code ", r.exitCode);
            }
        }
        if (!allOk)
            return 1;
    }

    try {
        const CampaignAccumulator merged =
            mergeShardResults(opts.campaign, opts.shards, opts.outDir);
        if (!writeMergedOutputs(merged, opts.outDir,
                                opts.binarySnapshots))
            return kShardExitConfig;
    } catch (const SnapshotError &e) {
        warn("cannot merge shard results: ", e.what());
        return kShardExitCorrupt;
    }

    // Telemetry merges last and never fails the run: the campaign
    // outputs above are already durable, and a lost trace is a
    // warning, not a wasted compute budget.
    if (opts.traceSpans)
        mergeShardTelemetry(opts.shards, opts.outDir,
                            opts.mergedTraceOut, opts.fleetProfileOut);
    return kShardExitOk;
}

CampaignAccumulator
runMonolithic(const CampaignConfig &campaign)
{
    const auto total =
        static_cast<std::uint64_t>(campaign.experiment.chips);
    ExperimentContext ctx(campaign.experiment);

    // Same block-wise fan-out/fold/evict loop as the shard worker
    // (minus checkpoints), so even the reference path runs with
    // bounded memory — and the identical fold order makes "same
    // bytes" a statement about merging, not about scheduling.
    constexpr std::uint64_t kBlock = 16;
    CampaignAccumulator acc(0);
    std::uint64_t cursor = 0;
    while (cursor < total) {
        const std::uint64_t blockEnd = std::min(cursor + kBlock, total);
        const auto blockSize =
            static_cast<std::size_t>(blockEnd - cursor);
        const auto results = globalPool().parallelMap(
            blockSize, [&](std::size_t i) {
                return runCampaignChip(
                    ctx, campaign,
                    static_cast<std::size_t>(cursor) + i);
            });
        for (std::size_t i = 0; i < blockSize; ++i)
            acc.addChip(cursor + i, results[i]);
        for (std::uint64_t id = cursor; id < blockEnd; ++id)
            ctx.evictChip(static_cast<std::size_t>(id));
        cursor = blockEnd;
    }
    return acc;
}

} // namespace eval
