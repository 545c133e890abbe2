/**
 * @file
 * Shared plumbing for the figure/table benches: the BenchReporter
 * footer and telemetry hooks, and the bench chip-count/config
 * conventions.  The experiments themselves live in core
 * (ExperimentContext::sweep for Figures 10-12, adaptApps for Fig 13).
 *
 * Conventions (DESIGN.md Sec 5): EVAL_CHIPS overrides the per-bench
 * default chip count (the paper uses 100); EVAL_SEED, EVAL_APPS and
 * EVAL_FAST are honoured through ExperimentConfig::fromEnv;
 * EVAL_THREADS sizes the global thread pool for the per-chip fan-out
 * (unset = hardware concurrency; results are bit-identical either
 * way, see DESIGN.md Sec 5c).  Benches run the same exact PE numerics
 * the golden tier pins; there is no bench-only fast path.
 *
 * Observability (DESIGN.md "Observability"): every bench constructs a
 * BenchReporter, which prints one machine-readable JSON footer line
 * ("BENCH_JSON {...}") with the bench name, wall-clock seconds, peak
 * RSS, and its key metrics.  Nothing gates on the footer: perfbench/
 * is the one performance measurement (TESTING.md "Measuring
 * performance").  The reporter also honours:
 *   EVAL_STATS_OUT=path    dump the stat registry (JSON, or CSV when
 *                          the path ends in .csv) on exit
 *   EVAL_TRACE_OUT=path    record and export the decision trace
 *   EVAL_TRACE_SPANS=path  record a span timeline, export
 *                          Chrome/Perfetto trace_event JSON
 *   EVAL_PROFILE_OUT=path  export the aggregated span profile
 *                          (profile.json schema, DESIGN.md Sec 5j);
 *                          either span env enables the tracer
 *   EVAL_MANIFEST=path     write the run-provenance manifest
 *                          (default <bench>.manifest.json; set empty
 *                          to disable)
 * The telemetry dump is registered with ExitFlush at construction, so
 * files survive fatal()/uncaught-exception exits mid-bench.
 */

#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/eval.hh"
#include "exec/thread_pool.hh"
#include "stats/stats.hh"
#include "trace/exit_flush.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

/**
 * Uniform bench footer: collects key metrics during the run and, on
 * destruction, prints exactly one line
 *   BENCH_JSON {"bench": "<name>", "wall_clock_s": W, "metrics": {...}}
 * so trajectory tooling can scrape every bench the same way.  Also
 * wires the EVAL_STATS_OUT / EVAL_TRACE_OUT / EVAL_TRACE_SPANS /
 * EVAL_PROFILE_OUT env hooks described in the file header.
 */
class BenchReporter
{
  public:
    explicit BenchReporter(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {
        // Benches opt in to the parallel execution layer: EVAL_THREADS
        // when set, hardware concurrency otherwise (the library
        // default stays serial).  The resulting thread count is
        // reported in the footer.
        setGlobalThreads(0);
        if (!envString("EVAL_TRACE_OUT", "").empty())
            DecisionTrace::global().setEnabled(true);
        spansPath_ = envString("EVAL_TRACE_SPANS", "");
        profilePath_ = envString("EVAL_PROFILE_OUT", "");
        if (!spansPath_.empty() || !profilePath_.empty())
            SpanTracer::global().setEnabled(true);
        manifestPath_ =
            envString("EVAL_MANIFEST", name_ + ".manifest.json");

        RunManifest::global().setTool(name_);
        RunManifest::global().setThreads(globalThreads());
        if (!spansPath_.empty())
            RunManifest::global().setOutput("trace_spans", spansPath_);
        if (!profilePath_.empty())
            RunManifest::global().setOutput("span_profile",
                                            profilePath_);

        // Registered up front so a bench that dies mid-run (fatal(),
        // uncaught exception) still flushes its telemetry files; the
        // destructor triggers the same closure on the normal path.
        flushId_ = ExitFlush::global().add(
            "bench." + name_ + ".telemetry",
            [spans = spansPath_, profile = profilePath_,
             manifest = manifestPath_] {
                const std::string statsPath =
                    envString("EVAL_STATS_OUT", "");
                if (!statsPath.empty()) {
                    if (statsPath.size() > 4 &&
                        statsPath.compare(statsPath.size() - 4, 4,
                                          ".csv") == 0) {
                        StatRegistry::global().writeCsv(statsPath);
                    } else {
                        StatRegistry::global().writeJson(statsPath);
                    }
                }
                const std::string tracePath =
                    envString("EVAL_TRACE_OUT", "");
                if (!tracePath.empty())
                    DecisionTrace::global().writeJsonl(tracePath);
                if (!spans.empty() &&
                    !SpanTracer::global().writeJson(spans))
                    warn("failed to write span trace to ", spans);
                if (!profile.empty() &&
                    !SpanTracer::global().writeProfileJson(profile))
                    warn("failed to write span profile to ", profile);
                if (!manifest.empty() &&
                    !RunManifest::global().write(manifest))
                    warn("failed to write manifest to ", manifest);
            });
    }

    BenchReporter(const BenchReporter &) = delete;
    BenchReporter &operator=(const BenchReporter &) = delete;

    void
    metric(const std::string &key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", value);
        metrics_.emplace_back(key, buf);
    }

    void
    metric(const std::string &key, const std::string &value)
    {
        metrics_.emplace_back(key, "\"" + value + "\"");
    }

    ~BenchReporter()
    {
        const double wallS =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();

        std::string json = "{\"bench\": \"" + name_ +
                           "\", \"wall_clock_s\": ";
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.3f", wallS);
        json += buf;
        json += ", \"threads\": " + std::to_string(globalThreads());
        json += ", \"peak_rss_kb\": " + std::to_string(peakRssKb());
        if (!spansPath_.empty())
            json += ", \"trace_spans\": \"" + spansPath_ + "\"";

        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            json += (i ? ", \"" : "\"") + metrics_[i].first +
                    "\": " + metrics_[i].second;
        }
        json += "}}\n";
        std::fputs(("BENCH_JSON " + json).c_str(), stdout);

        RunManifest::global().addStage(name_, wallS);
        // Normal exit: flush every registered closure (ours included)
        // now, exactly once; the atexit hook then finds nothing left.
        ExitFlush::global().runNow();
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::string spansPath_;
    std::string profilePath_;
    std::string manifestPath_;
    int flushId_ = 0;
    std::vector<std::pair<std::string, std::string>> metrics_;
};

/** Chip count: EVAL_CHIPS if set, otherwise the bench's default. */
inline int
benchChips(int dflt)
{
    int chips = static_cast<int>(envInt("EVAL_CHIPS", dflt));
    if (envBool("EVAL_FAST", false))
        chips = std::min(chips, 6);
    return std::max(chips, 1);
}

/** Build the experiment configuration for a bench (and stamp its
 *  seed + fingerprint into the run manifest). */
inline ExperimentConfig
benchConfig(int defaultChips)
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = benchChips(defaultChips);
    RunManifest::global().setSeed(cfg.seed);
    RunManifest::global().setConfig(cfg.fingerprint());
    return cfg;
}

} // namespace eval

