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
 *       a mini Figure 10/11/12 table
 *   eval_cli record --app gcc --ops 100000 --out trace.trc
 *   eval_cli replay --trace trace.trc [--insts 50000]
 *   eval_cli fig13  [--chips N] [--seed S] [--apps gzip,swim,applu]
 *                   [--sim-insts K] [--scheme fuzzy|exh] [--out DIR]
 *                   [--shards N] [--in-process] [--resume]
 *                   [--checkpoint-every K] [--text-snapshots]
 *       the sharded Figure 13 population campaign.  With --shards N
 *       the process becomes a supervisor that re-execs itself once
 *       per shard (--shard=i/N workers, concurrent, each with its own
 *       checkpoint in DIR); --resume skips completed shards and
 *       replays interrupted ones from their checkpoints.  Without
 *       --shards it runs the monolithic reference path.  Either way
 *       DIR ends up with byte-identical merged.snap +
 *       merged.stats.json (tests/shard/shard_differential_test).
 *
 * Observability flags (any command; see DESIGN.md "Observability"):
 *   --stats-out=FILE   dump the stat registry on exit (JSON, or CSV
 *                      when FILE ends in .csv)
 *   --trace-out=FILE   record every adaptation decision, export JSONL
 *   --trace-spans=FILE record a span timeline, export Chrome/Perfetto
 *                      trace_event JSON (open in ui.perfetto.dev);
 *                      default from EVAL_TRACE_SPANS.  For a sharded
 *                      fig13 run FILE becomes the MERGED fleet
 *                      timeline (one pid per shard)
 *   --profile-out=FILE export the span profile (exact per-span
 *                      count/inclusive/self times, profile.json
 *                      schema; analyze with eval_prof); default from
 *                      EVAL_PROFILE_OUT, else derived from
 *                      --trace-spans (FILE.profile.json).  For a
 *                      sharded fig13 run this is the merged fleet
 *                      profile
 *   --manifest=FILE    write a run-provenance manifest (git SHA, build
 *                      flags, seed, stage wall times, peak RSS);
 *                      default from EVAL_MANIFEST, "" disables
 * With any of these flags present the command defaults to `run`.
 * All telemetry files are registered with ExitFlush, so they are
 * written even when the run dies via fatal()/uncaught exception.
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
#include "exec/subprocess.hh"
#include "util/logging.hh"
#include "core/retiming.hh"
#include "shard/supervisor.hh"
#include "shard/trace_merge.hh"
#include "shard/worker.hh"
#include "stats/stats.hh"
#include "trace/exit_flush.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/arg_parser.hh"
#include "workload/trace_file.hh"

using namespace eval;

namespace {

/** Set when a fig13 supervisor routes the span/profile outputs
 *  through the fleet merge: the generic exit-time writers must then
 *  leave those files alone (the merged timeline would be clobbered by
 *  the supervisor's own near-empty tracer). */
bool gFleetOwnsSpans = false;

/** The default profile path rides alongside the trace: x.json ->
 *  x.profile.json. */
std::string
deriveProfilePath(const std::string &spansPath)
{
    const std::string suffix = ".json";
    if (spansPath.size() > suffix.size() &&
        spansPath.compare(spansPath.size() - suffix.size(),
                          suffix.size(), suffix) == 0)
        return spansPath.substr(0, spansPath.size() - suffix.size()) +
               ".profile.json";
    return spansPath + ".profile.json";
}

/** Resolve --trace-spans / --profile-out (flags, env defaults, and
 *  the derived profile path).  Shared by main() and the fig13
 *  supervisor so both agree on where fleet telemetry lands. */
void
spanOutputPaths(const ArgParser &args, std::string &spansOut,
                std::string &profileOut)
{
    const char *spansEnv = std::getenv("EVAL_TRACE_SPANS");
    spansOut = args.getString("trace-spans", spansEnv ? spansEnv : "");
    const char *profEnv = std::getenv("EVAL_PROFILE_OUT");
    profileOut =
        args.getString("profile-out", profEnv ? profEnv : "");
    if (profileOut.empty() && !spansOut.empty())
        profileOut = deriveProfilePath(spansOut);
}

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

    TablePrinter table("sweep (Fuzzy-Dyn, suite mean)");
    table.header({"environment", "fR", "PerfR", "power (W)"});
    const auto apps = ctx.selectedApps();
    for (const std::string &name : envNames) {
        const EnvironmentKind env = parseEnv(name);
        RunningStats fr, pr, pw;
        for (int chip = 0; chip < cfg.chips; ++chip) {
            for (std::size_t a = 0; a < apps.size(); a += 4) {
                const AppRunResult r = ctx.runApp(
                    chip, (chip + a) % 4, *apps[a], env,
                    AdaptScheme::FuzzyDyn);
                fr.add(r.freqRel);
                pr.add(r.perfRel);
                pw.add(r.powerW);
            }
        }
        table.row({name, formatDouble(fr.mean(), 3),
                   formatDouble(pr.mean(), 3),
                   formatDouble(pw.mean(), 1)});
    }
    table.print();
    return 0;
}

int
cmdRecord(const ArgParser &args)
{
    const AppProfile &app = appByName(args.getString("app", "gcc"));
    const auto ops = static_cast<std::uint64_t>(
        args.getInt("ops", 100000));
    const std::string out = args.getString("out", "trace.trc");
    SyntheticTrace trace(app,
                         static_cast<std::uint64_t>(args.getInt("seed",
                                                                1)));
    const std::uint64_t written = recordTrace(trace, ops, out);
    std::printf("recorded %llu ops of %s into %s\n",
                static_cast<unsigned long long>(written),
                app.name.c_str(), out.c_str());
    return 0;
}

int
cmdReplay(const ArgParser &args)
{
    const std::string path = args.getString("trace", "trace.trc");
    FileTrace trace(path, /*loop=*/true);
    CoreConfig cfg;
    Core core(cfg, static_cast<std::uint64_t>(args.getInt("seed", 1)));
    const auto insts = static_cast<std::uint64_t>(
        args.getInt("insts", 50000));
    const CoreStats s = core.run(trace, insts);
    std::printf("replayed %s: IPC %.2f, CPIcomp %.2f, "
                "L2 misses %.2f/1k inst, branch mpki %.1f\n",
                path.c_str(), s.ipc(), s.cpiComp(),
                1000.0 * s.missesPerInstruction(),
                1000.0 * static_cast<double>(s.branchMispredicts) /
                    static_cast<double>(s.instructions));
    return 0;
}

/** Campaign knobs shared by the fig13 worker/supervisor/monolithic
 *  paths.  Apps are pinned explicitly (not via EVAL_APPS) so every
 *  worker process of a sharded run resolves the same suite. */
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
    const CampaignConfig campaign = fig13CampaignFrom(args);
    const std::string outDir = args.getString("out", "fig13-out");
    const auto checkpointEvery = static_cast<std::uint64_t>(
        args.getInt("checkpoint-every", 16));
    const bool resume = args.getBool("resume", false);
    const bool binary = !args.getBool("text-snapshots", false);
    const std::string shardArg = args.getString("shard", "");

    if (!shardArg.empty()) {
        // Worker mode: one shard of a supervised run.
        ShardWorkerOptions w;
        if (!parseShardSpec(shardArg, w.spec))
            EVAL_FATAL("bad --shard '", shardArg, "' (want i/N)");
        w.campaign = campaign;
        w.outDir = outDir;
        w.checkpointEvery = checkpointEvery;
        w.resume = resume;
        w.binarySnapshots = binary;

        // Crash-injection hook for check.sh --shard-smoke: SIGKILL
        // the selected shard after K chips, before its checkpoint.
        const auto abortAfter = static_cast<std::uint64_t>(
            envInt("EVAL_SHARD_ABORT_AFTER", 0));
        const auto abortShard = static_cast<std::uint64_t>(
            envInt("EVAL_SHARD_ABORT_SHARD", 0));
        if (abortAfter > 0 && abortShard == w.spec.index)
            w.killAfterChips = abortAfter;
        return runShardWorker(w);
    }

    const auto shards =
        static_cast<std::uint32_t>(args.getInt("shards", 0));
    if (shards > 0) {
        ShardSupervisorOptions s;
        s.campaign = campaign;
        s.shards = shards;
        s.outDir = outDir;
        s.checkpointEvery = checkpointEvery;
        s.resume = resume;
        s.binarySnapshots = binary;

        // Fleet telemetry: --trace-spans/--profile-out name the
        // MERGED outputs of a sharded run; the per-shard files live
        // under DIR/trace/.  The supervisor's own tracer output is
        // suppressed (gFleetOwnsSpans) so the exit-time writer cannot
        // clobber the merged timeline.
        std::string spansOut;
        std::string profileOut;
        spanOutputPaths(args, spansOut, profileOut);
        if (!spansOut.empty() || !profileOut.empty()) {
            s.traceSpans = true;
            s.mergedTraceOut = spansOut;
            s.fleetProfileOut = profileOut;
            gFleetOwnsSpans = true;
        }

        if (!args.getBool("in-process", false)) {
            // Re-exec this binary once per shard; the supervisor
            // appends --shard=i/N.  --manifest= keeps workers from
            // fighting over the default manifest path.
            s.workerArgv = {Subprocess::selfExePath(),
                            "fig13",
                            "--chips=" + std::to_string(
                                campaign.experiment.chips),
                            "--seed=" + std::to_string(
                                campaign.experiment.seed),
                            "--sim-insts=" + std::to_string(
                                campaign.experiment.simInsts),
                            "--apps=" + args.getString(
                                "apps", "gzip,swim,applu"),
                            "--scheme=" + args.getString(
                                "scheme", "fuzzy"),
                            "--out=" + outDir,
                            "--checkpoint-every=" + std::to_string(
                                checkpointEvery),
                            "--manifest="};
            if (resume)
                s.workerArgv.push_back("--resume");
            if (!binary)
                s.workerArgv.push_back("--text-snapshots");
        }
        const int rc = runShardSupervisor(s);
        if (rc != 0) {
            warn("fig13 sharded run failed (exit ", rc,
                 "); re-run with --resume to continue from the "
                 "checkpoints");
            return rc;
        }
        std::printf("fig13: %d chips across %u shards -> %s, %s\n",
                    campaign.experiment.chips, shards,
                    mergedSnapshotPath(outDir).c_str(),
                    mergedStatsPath(outDir).c_str());
        return 0;
    }

    // Monolithic reference path: same outputs, no sharding machinery.
    const CampaignAccumulator acc = runMonolithic(campaign);
    if (!writeMergedOutputs(acc, outDir, binary))
        return 1;
    std::printf("fig13: %d chips monolithic -> %s, %s "
                "(digest %.0f)\n",
                campaign.experiment.chips,
                mergedSnapshotPath(outDir).c_str(),
                mergedStatsPath(outDir).c_str(), acc.digest());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: eval_cli <chips|run|sweep|record|replay"
                 "|fig13> "
                 "[--stats-out=FILE] [--trace-out=FILE] "
                 "[--threads=N] [options]\n"
                 "(see the file header for options)\n");
    return 2;
}

/** Export stats/trace per the observability flags. */
void
dumpObservability(const std::string &statsOut,
                  const std::string &traceOut)
{
    if (!statsOut.empty()) {
        if (statsOut.size() > 4 &&
            statsOut.compare(statsOut.size() - 4, 4, ".csv") == 0) {
            StatRegistry::global().writeCsv(statsOut);
        } else {
            StatRegistry::global().writeJson(statsOut);
        }
    }
    if (!traceOut.empty())
        DecisionTrace::global().writeJsonl(traceOut);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);

    const std::string statsOut = args.getString("stats-out", "");
    const std::string traceOut = args.getString("trace-out", "");
    std::string spansOut;
    std::string profileOut;
    spanOutputPaths(args, spansOut, profileOut);
    const char *manifestEnv = std::getenv("EVAL_MANIFEST");
    const std::string manifestOut = args.getString(
        "manifest", manifestEnv ? manifestEnv : "manifest.json");
    // --threads=N overrides EVAL_THREADS / hardware concurrency (0 =
    // auto); results do not depend on the thread count.
    const std::int64_t threadsArg = args.getInt("threads", 0);
    setGlobalThreads(
        threadsArg > 0 ? static_cast<std::size_t>(threadsArg) : 0);
    if (!traceOut.empty())
        DecisionTrace::global().setEnabled(true);
    if (!spansOut.empty() || !profileOut.empty())
        SpanTracer::global().setEnabled(true);

    RunManifest::global().setTool("eval_cli");
    RunManifest::global().setThreads(globalThreads());
    if (!statsOut.empty())
        RunManifest::global().setOutput("stats", statsOut);
    if (!traceOut.empty())
        RunManifest::global().setOutput("decision_trace", traceOut);
    if (!spansOut.empty())
        RunManifest::global().setOutput("trace_spans", spansOut);
    if (!profileOut.empty())
        RunManifest::global().setOutput("span_profile", profileOut);

    // Telemetry survives fatal()/uncaught exceptions: the flush runs
    // from the atexit/terminate hooks, and runNow() below makes the
    // normal path identical (closures run exactly once).
    ExitFlush::global().add(
        "eval_cli.telemetry",
        [statsOut, traceOut, spansOut, profileOut, manifestOut] {
            dumpObservability(statsOut, traceOut);
            if (!gFleetOwnsSpans) {
                if (!spansOut.empty() &&
                    !SpanTracer::global().writeJson(spansOut)) {
                    warn("failed to write span trace to ", spansOut);
                }
                if (!profileOut.empty() &&
                    !SpanTracer::global().writeProfileJson(
                        profileOut)) {
                    warn("failed to write span profile to ",
                         profileOut);
                }
            }
            if (!manifestOut.empty() &&
                !RunManifest::global().write(manifestOut)) {
                warn("failed to write manifest to ", manifestOut);
            }
        });

    // With observability flags but no command, default to `run`.
    const bool observing = !statsOut.empty() || !traceOut.empty() ||
                           !spansOut.empty() || !profileOut.empty();
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
        else if (cmd == "record")
            rc = cmdRecord(args);
        else if (cmd == "replay")
            rc = cmdReplay(args);
        else if (cmd == "fig13")
            rc = cmdFig13(args);
        else
            return usage();
    }
    RunManifest::global().addStage(
        cmd, static_cast<double>(traceNowNs() - cmdStart) / 1e9);

    ExitFlush::global().runNow();

    for (const std::string &key : args.unusedKeys())
        warn("unused option --", key);
    return rc;
}
