/**
 * @file
 * Shard-scaling bench: runs the Fig 13 population campaign through
 * the shard supervisor at shard counts {1, 2, 4} — real fork/exec
 * workers, the production protocol — plus the monolithic reference,
 * and fails loudly unless every merged.snap / merged.stats.json is
 * byte-identical across all of them (the differential property, at
 * bench scale; `scripts/check.sh --shard-smoke` runs it in CI).
 *
 * Footer metrics: wall seconds per shard count and fork-speedup ratios.
 *
 * The acceptance-scale run is the same binary at population size:
 *   EVAL_CHIPS=100000 ./bench_shard_scaling
 * Peak RSS stays bounded by the checkpoint block size regardless of
 * EVAL_CHIPS because workers manufacture chips lazily and evict each
 * block after folding it.
 *
 * Internal protocol: the supervisor re-execs this binary as
 *   bench_shard_scaling --shard-worker <outDir> --shard=i/N
 * Worker invocations print no BENCH_JSON footer (one footer per
 * bench run).
 */

#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench_common.hh"
#include "exec/subprocess.hh"
#include "shard/supervisor.hh"
#include "shard/worker.hh"

using namespace eval;

namespace {

/** The campaign under test; every process (parent and workers) must
 *  build the identical config, so it only depends on the inherited
 *  environment (EVAL_CHIPS / EVAL_SEED / EVAL_FAST / ...). */
CampaignConfig
makeCampaign()
{
    CampaignConfig campaign;
    campaign.experiment = ExperimentConfig::fromEnv();
    campaign.experiment.chips = benchChips(12);
    // Pinned explicitly so workers cannot diverge via EVAL_APPS
    // defaulting differently, and to keep the per-chip unit modest.
    campaign.experiment.apps = {"gzip", "swim"};
    campaign.scheme = AdaptScheme::FuzzyDyn;
    return campaign;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        EVAL_FATAL("cannot read ", path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

int
runWorker(int argc, char **argv)
{
    if (argc < 4 || std::strncmp(argv[3], "--shard=", 8) != 0)
        EVAL_FATAL("worker usage: --shard-worker <outDir> --shard=i/N");
    setGlobalThreads(0);
    ShardWorkerOptions w;
    w.campaign = makeCampaign();
    w.outDir = argv[2];
    if (!parseShardSpec(argv[3] + 8, w.spec))
        EVAL_FATAL("bad shard spec '", argv[3], "'");
    w.checkpointEvery = 8;
    return runShardWorker(w);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
        return runWorker(argc, argv);

    BenchReporter reporter("shard_scaling");
    const CampaignConfig campaign = makeCampaign();
    const auto chips =
        static_cast<std::uint64_t>(campaign.experiment.chips);
    const std::string base = "bench_shard_scaling.out";
    std::filesystem::remove_all(base);

    // Monolithic reference.
    const std::string monoDir = base + "/mono";
    const auto monoStart = std::chrono::steady_clock::now();
    const CampaignAccumulator mono = runMonolithic(campaign);
    const double monoS = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             monoStart)
                             .count();
    if (!writeMergedOutputs(mono, monoDir, /*binarySnapshots=*/true))
        EVAL_FATAL("cannot write monolithic reference outputs");
    const std::string refSnap =
        readFileBytes(mergedSnapshotPath(monoDir));
    const std::string refStats = readFileBytes(mergedStatsPath(monoDir));
    reporter.metric("wall_s_mono", monoS);
    std::printf("monolithic: %llu chips in %.2fs (digest %.0f)\n",
                static_cast<unsigned long long>(chips), monoS,
                mono.digest());

    double wall1 = 0.0;
    for (std::uint32_t shards : {1u, 2u, 4u}) {
        const std::string dir =
            base + "/s" + std::to_string(shards);
        ShardSupervisorOptions s;
        s.campaign = campaign;
        s.shards = shards;
        s.outDir = dir;
        s.checkpointEvery = 8;
        s.workerArgv = {Subprocess::selfExePath(), "--shard-worker",
                        dir};

        const auto start = std::chrono::steady_clock::now();
        const int rc = runShardSupervisor(s);
        const double wallS = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 start)
                                 .count();
        if (rc != 0)
            EVAL_FATAL("sharded run (", shards, " shards) failed: ",
                       rc);

        // The differential property, at bench scale: byte identity of
        // both merged artifacts against the monolithic reference.
        if (readFileBytes(mergedSnapshotPath(dir)) != refSnap)
            EVAL_FATAL(shards,
                       "-shard merged.snap differs from monolithic");
        if (readFileBytes(mergedStatsPath(dir)) != refStats)
            EVAL_FATAL(shards, "-shard merged.stats.json differs "
                               "from monolithic");

        if (shards == 1)
            wall1 = wallS;
        reporter.metric("wall_s_" + std::to_string(shards) + "shard",
                        wallS);
        if (shards > 1 && wallS > 0.0)
            reporter.metric("speedup_" + std::to_string(shards) +
                                "shard",
                            wall1 / wallS);
        std::printf("%u shards: %.2fs, merged outputs byte-identical "
                    "to monolithic\n",
                    shards, wallS);
    }

    reporter.metric("chips", static_cast<double>(chips));
    std::puts("shard differential property holds at every count");
    return 0;
}
