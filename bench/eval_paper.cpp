/**
 * @file
 * eval_paper — every reproduced table, figure and ablation of the
 * paper from one ExperimentContext.
 *
 *   eval_paper                  run every experiment in paper order
 *   eval_paper fig13 table2     run only the named ones, in that order
 *
 * An unknown name prints the known ones and exits 2.  The population
 * is EVAL_CHIPS chips (default 16; the paper uses 100).  One context
 * serves every experiment because the NoVar reference chip's identity
 * depends on the population size, so experiments at different chip
 * counts could not share one.  EVAL_SEED, EVAL_APPS, EVAL_FAST,
 * EVAL_SIM_INSTS and EVAL_FC_EXAMPLES are honoured through
 * ExperimentConfig::fromEnv; EVAL_THREADS sizes the worker pool
 * (unset = hardware concurrency; the output is the same either way,
 * DESIGN.md Sec 5c).
 *
 * Telemetry (DESIGN.md "Observability") goes through startTelemetry:
 *   EVAL_STATS_OUT=path    dump the stat registry (JSON) on exit
 *   EVAL_TRACE_OUT=path    record and export the decision trace
 *   EVAL_PROFILE_OUT=path  record the span profile; each experiment
 *                          is one paper.<name> span
 *   EVAL_MANIFEST=path     write the run manifest, one stage per
 *                          experiment (default eval_paper.manifest.json;
 *                          set empty to disable)
 * The files survive fatal()/uncaught-exception exits mid-run.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "paper.hh"
#include "stats/telemetry.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/config.hh"
#include "util/logging.hh"

using namespace eval;

namespace {

struct Experiment
{
    const char *name;
    void (*run)(ExperimentContext &);
};

/** Paper order: Sec 2-3 mechanics, Sec 4 design choices, the Sec 6
 *  evaluation, Sec 7 related work, Appendix A, then our extension. */
constexpr Experiment kExperiments[] = {
    {"fig01", fig01Vats},
    {"fig02", fig02Techniques},
    {"checker", ablationChecker},
    {"pemax", ablationPeMax},
    {"phase", ablationPhase},
    {"area", areaOverhead},
    {"fc_training", ablationFcTraining},
    {"fig08", fig08Tradeoff},
    {"fig09", fig09Surfaces},
    {"fig10_12", fig10to12Sweep},
    {"fig13", fig13Outcomes},
    {"table2", table2FuzzyAccuracy},
    {"techniques", ablationTechniques},
    {"retiming", relatedRetiming},
    {"controllers", ablationControllers},
    {"cmp", cmpMixes},
};

/** The population: EVAL_CHIPS, else 16 (both under the EVAL_FAST
 *  clamp of fromEnv). */
ExperimentConfig
paperConfig()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    if (!envHas("EVAL_CHIPS"))
        cfg.chips = std::min(cfg.chips, 16);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Experiment *> selected;
    for (int i = 1; i < argc; ++i) {
        const auto it = std::find_if(
            std::begin(kExperiments), std::end(kExperiments),
            [arg = std::string(argv[i])](const Experiment &e) {
                return arg == e.name;
            });
        if (it == std::end(kExperiments)) {
            std::fprintf(stderr,
                         "eval_paper: unknown experiment '%s'; known:",
                         argv[i]);
            for (const Experiment &e : kExperiments)
                std::fprintf(stderr, " %s", e.name);
            std::fprintf(stderr, "\n");
            return 2;
        }
        selected.push_back(it);
    }
    if (selected.empty())
        for (const Experiment &e : kExperiments)
            selected.push_back(&e);

    setGlobalThreads(0);
    RunManifest::global().setThreads(globalThreads());
    // getenv, not envString: a set-but-empty EVAL_MANIFEST turns the
    // manifest off, as it does for eval_cli.
    const char *manifest = std::getenv("EVAL_MANIFEST");
    startTelemetry("eval_paper",
                   {envString("EVAL_STATS_OUT", ""),
                    envString("EVAL_TRACE_OUT", ""),
                    envString("EVAL_PROFILE_OUT", ""),
                    manifest ? manifest : "eval_paper.manifest.json"});

    const ExperimentConfig cfg = paperConfig();
    RunManifest::global().setSeed(cfg.seed);
    RunManifest::global().setConfig(cfg.fingerprint());
    ExperimentContext ctx(cfg);

    for (const Experiment *e : selected) {
        inform("eval_paper: ", e->name);
        const std::string spanName = std::string("paper.") + e->name;
        const std::uint64_t start = traceNowNs();
        {
            ScopedSpan span(spanName.c_str());
            e->run(ctx);
        }
        // A later experiment that dies must not take these tables
        // with it.
        std::fflush(stdout);
        RunManifest::global().addStage(
            e->name, static_cast<double>(traceNowNs() - start) / 1e9);
    }
    finishTelemetry();
    return 0;
}
