/**
 * @file
 * eval_cli — command-line driver over the whole library.
 *
 *   eval_cli chips  [--chips N] [--seed S]
 *       rate each die (Baseline / retimed / limiting subsystem)
 *   eval_cli run    --app swim [--chip 0] [--core 0]
 *                   [--env TS+ASV+Q+FU] [--scheme fuzzy|exh|static]
 *       one adaptation run with per-subsystem detail
 *   eval_cli sweep  [--chips N] [--envs TS,TS+ASV,...]
 *       a mini Figure 10/11/12 table: ExperimentContext::sweep (the
 *       loop eval_paper and the goldens run) under Fuzzy-Dyn over the
 *       selected apps
 *   eval_cli fig13  [--chips N] [--seed S] [--apps gzip,swim,applu]
 *                   [--sim-insts K] [--scheme fuzzy|exh] [--out DIR]
 *                   [--checkpoint-every K] [--resume]
 *       the Figure 13 population campaign, in this process on the
 *       worker pool.  It checkpoints DIR/campaign.ckpt.snap every K
 *       chips and ends with merged.snap + merged.stats.json in DIR;
 *       --resume continues from the checkpoint to byte-identical
 *       outputs, and a corrupt or mismatched checkpoint exits 4
 *       (tests/shard/checkpoint_resume_test).
 *
 * Observability flags (any command; see DESIGN.md "Observability"):
 *   --stats-out=FILE   dump the stat registry on exit (JSON)
 *   --trace-out=FILE   record every adaptation decision, export JSONL
 *   --profile-out=FILE record the span profile (exact per-span
 *                      count/inclusive/self times, profile.json
 *                      schema; analyze with eval_prof); default from
 *                      EVAL_PROFILE_OUT
 *   --manifest=FILE    write a run-provenance manifest (git SHA, build
 *                      flags, seed, stage wall times, peak RSS);
 *                      default from EVAL_MANIFEST, "" disables
 * With any of the first three present the command defaults to `run`.
 * The flags go to startTelemetry (src/stats/telemetry.hh), the hookup
 * eval_paper shares, so the files are written even when the run dies
 * via fatal()/uncaught exception.
 *
 * Execution:
 *   --threads=N        size of the worker pool for the parallel loops
 *                      (default: EVAL_THREADS, else all hardware
 *                      threads; results are identical for any N)
 */

#include <cstdio>
#include <cstdlib>

#include "core/eval.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"
#include "core/retiming.hh"
#include "shard/supervisor.hh"
#include "stats/telemetry.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/arg_parser.hh"

using namespace eval;

namespace {

EnvironmentKind
parseEnv(const std::string &name)
{
    for (auto kind : {EnvironmentKind::Baseline, EnvironmentKind::TS,
                      EnvironmentKind::TS_ASV, EnvironmentKind::TS_ASV_ABB,
                      EnvironmentKind::TS_ASV_Q,
                      EnvironmentKind::TS_ASV_Q_FU, EnvironmentKind::ALL,
                      EnvironmentKind::NoVar}) {
        if (name == environmentName(kind))
            return kind;
    }
    EVAL_FATAL("unknown environment '", name,
               "' (try TS, TS+ASV, TS+ASV+Q+FU, ALL, Baseline, NoVar)");
}

AdaptScheme
parseScheme(const std::string &name)
{
    if (name == "static")
        return AdaptScheme::Static;
    if (name == "fuzzy")
        return AdaptScheme::FuzzyDyn;
    if (name == "exh")
        return AdaptScheme::ExhDyn;
    EVAL_FATAL("unknown scheme '", name, "' (static|fuzzy|exh)");
}

ExperimentConfig
configFrom(const ArgParser &args, int defaultChips)
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = static_cast<int>(args.getInt("chips", defaultChips));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    RunManifest::global().setSeed(cfg.seed);
    RunManifest::global().setConfig(cfg.fingerprint());
    return cfg;
}

int
cmdChips(const ArgParser &args)
{
    ExperimentConfig cfg = configFrom(args, 8);
    ExperimentContext ctx(cfg);

    TablePrinter table("die ratings");
    table.header({"chip", "baseline (GHz)", "retimed (GHz)",
                  "limiting subsystem"});
    for (int c = 0; c < cfg.chips; ++c) {
        CoreSystemModel &core = ctx.coreModel(c, 0);
        const OperatingConditions corner{
            cfg.process.vddNominal * (1.0 - cfg.process.vddDroopGuardband),
            0.0, cfg.process.tempNominalC};
        std::string limiter;
        double fmin = 1e30;
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            double f = core.subsystem(id).errorModel(false).fvar(corner);
            if (id == SubsystemId::Dcache || id == SubsystemId::Icache)
                f *= kRazorL1Margin;
            if (f < fmin) {
                fmin = f;
                limiter = core.subsystem(id).info().name;
            }
        }
        table.row({std::to_string(c),
                   formatDouble(core.baselineFrequency() / 1e9, 2),
                   formatDouble(retimedFrequency(core) / 1e9, 2),
                   limiter});
    }
    table.print();
    return 0;
}

int
cmdRun(const ArgParser &args)
{
    ExperimentConfig cfg = configFrom(args, 4);
    ExperimentContext ctx(cfg);

    const AppProfile &app =
        appByName(args.getString("app", "swim"));
    const auto chip = static_cast<std::size_t>(args.getInt("chip", 0));
    const auto core = static_cast<std::size_t>(args.getInt("core", 0));
    const EnvironmentKind env =
        parseEnv(args.getString("env", "TS+ASV+Q+FU"));
    const AdaptScheme scheme =
        parseScheme(args.getString("scheme", "fuzzy"));

    const AppRunResult r = ctx.runApp(chip, core, app, env, scheme);
    std::printf("%s on chip %zu core %zu under %s / %s:\n",
                app.name.c_str(), chip, core, environmentName(env),
                adaptSchemeName(scheme));
    std::printf("  frequency   %.2f GHz (%.2fx NoVar)\n",
                r.freqRel * cfg.process.freqNominal / 1e9, r.freqRel);
    std::printf("  performance %.2fx NoVar\n", r.perfRel);
    std::printf("  power       %.1f W (cap %.0f W)\n", r.powerW,
                cfg.constraints.pMaxW);
    std::printf("  error rate  %.2e err/inst (cap %.0e)\n", r.pePerInstr,
                cfg.constraints.peMax);
    for (RetuneOutcome o : r.outcomes)
        std::printf("  controller outcome: %s\n", retuneOutcomeName(o));
    return 0;
}

int
cmdSweep(const ArgParser &args)
{
    ExperimentConfig cfg = configFrom(args, 4);
    ExperimentContext ctx(cfg);
    const auto envNames = splitCsvList(
        args.getString("envs", "TS,TS+ASV,TS+ASV+Q+FU"));

    std::vector<SweepKey> keys;
    for (const std::string &name : envNames)
        keys.push_back({parseEnv(name), AdaptScheme::FuzzyDyn});
    const std::vector<SweepCell> cells = ctx.sweep(keys);

    TablePrinter table("sweep (Fuzzy-Dyn, suite mean)");
    table.header({"environment", "fR", "PerfR", "power (W)"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        table.row({envNames[i], formatDouble(cells[i].freqRel, 3),
                   formatDouble(cells[i].perfRel, 3),
                   formatDouble(cells[i].powerW, 1)});
    }
    table.print();
    return 0;
}

/** The fig13 campaign knobs.  Apps are pinned explicitly (not via
 *  EVAL_APPS) so a --resume resolves the same suite, and with it the
 *  same fingerprint, as the run it continues. */
CampaignConfig
fig13CampaignFrom(const ArgParser &args)
{
    CampaignConfig campaign;
    campaign.experiment = configFrom(args, 8);
    campaign.experiment.simInsts = static_cast<std::uint64_t>(
        args.getInt("sim-insts",
                    static_cast<std::int64_t>(
                        campaign.experiment.simInsts)));
    campaign.experiment.apps =
        splitCsvList(args.getString("apps", "gzip,swim,applu"));
    campaign.scheme = parseScheme(args.getString("scheme", "fuzzy"));
    if (campaign.scheme == AdaptScheme::Static)
        EVAL_FATAL("fig13 is a dynamic-controller campaign "
                   "(--scheme fuzzy|exh)");
    return campaign;
}

int
cmdFig13(const ArgParser &args)
{
    CampaignLoopOptions opts;
    opts.campaign = fig13CampaignFrom(args);
    opts.outDir = args.getString("out", "fig13-out");
    opts.checkpointEvery = static_cast<std::uint64_t>(
        args.getInt("checkpoint-every", 16));
    opts.resume = args.getBool("resume", false);

    CampaignAccumulator acc;
    const int rc = runCampaignLoop(opts, acc);
    if (rc != kCampaignExitOk) {
        warn("fig13 campaign failed (exit ", rc, ")");
        return rc;
    }
    std::printf("fig13: %d chips -> %s, %s (digest %.0f)\n",
                opts.campaign.experiment.chips,
                mergedSnapshotPath(opts.outDir).c_str(),
                mergedStatsPath(opts.outDir).c_str(), acc.digest());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: eval_cli <chips|run|sweep|fig13> "
                 "[--stats-out=FILE] [--trace-out=FILE] "
                 "[--threads=N] [options]\n"
                 "(see the file header for options)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);

    // --threads=N overrides EVAL_THREADS / hardware concurrency (0 =
    // auto); results do not depend on the thread count.
    const std::int64_t threadsArg = args.getInt("threads", 0);
    setGlobalThreads(
        threadsArg > 0 ? static_cast<std::size_t>(threadsArg) : 0);
    RunManifest::global().setThreads(globalThreads());

    const char *profileEnv = std::getenv("EVAL_PROFILE_OUT");
    const char *manifestEnv = std::getenv("EVAL_MANIFEST");
    const TelemetryPaths telemetry{
        args.getString("stats-out", ""), args.getString("trace-out", ""),
        args.getString("profile-out", profileEnv ? profileEnv : ""),
        args.getString("manifest",
                       manifestEnv ? manifestEnv : "manifest.json")};
    startTelemetry("eval_cli", telemetry);

    // With observability flags but no command, default to `run`.
    const bool observing = !telemetry.stats.empty() ||
                           !telemetry.decisions.empty() ||
                           !telemetry.profile.empty();
    if (args.positional().empty() && !observing)
        return usage();
    const std::string cmd =
        args.positional().empty() ? "run" : args.positional().front();

    int rc;
    const std::string spanName = "cli." + cmd;
    const std::uint64_t cmdStart = traceNowNs();
    {
        ScopedSpan span(spanName.c_str());
        if (cmd == "chips")
            rc = cmdChips(args);
        else if (cmd == "run")
            rc = cmdRun(args);
        else if (cmd == "sweep")
            rc = cmdSweep(args);
        else if (cmd == "fig13")
            rc = cmdFig13(args);
        else
            return usage();
    }
    RunManifest::global().addStage(
        cmd, static_cast<double>(traceNowNs() - cmdStart) / 1e9);
    finishTelemetry();

    for (const std::string &key : args.unusedKeys())
        warn("unused option --", key);
    return rc;
}
