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
 * performance").  The reporter also hands these paths to
 * startTelemetry (src/stats/telemetry.hh), the hookup eval_cli uses:
 *   EVAL_STATS_OUT=path    dump the stat registry (JSON) on exit
 *   EVAL_TRACE_OUT=path    record and export the decision trace
 *   EVAL_PROFILE_OUT=path  record the span profile (profile.json
 *                          schema, DESIGN.md Sec 5j)
 *   EVAL_MANIFEST=path     write the run-provenance manifest
 *                          (default <bench>.manifest.json; set empty
 *                          to disable)
 * The files survive fatal()/uncaught-exception exits mid-bench.
 */

#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/eval.hh"
#include "exec/thread_pool.hh"
#include "stats/telemetry.hh"
#include "trace/manifest.hh"
#include "util/logging.hh"

namespace eval {

/**
 * Uniform bench footer: collects key metrics during the run and, on
 * destruction, prints exactly one line
 *   BENCH_JSON {"bench": "<name>", "wall_clock_s": W, "metrics": {...}}
 * so trajectory tooling can scrape every bench the same way.  Also
 * starts the telemetry the env hooks in the file header ask for.
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
        RunManifest::global().setThreads(globalThreads());
        // getenv, not envString: a set-but-empty EVAL_MANIFEST turns
        // the manifest off, as it does for eval_cli.
        const char *manifest = std::getenv("EVAL_MANIFEST");
        startTelemetry(
            name_, {envString("EVAL_STATS_OUT", ""),
                    envString("EVAL_TRACE_OUT", ""),
                    envString("EVAL_PROFILE_OUT", ""),
                    manifest ? manifest : name_ + ".manifest.json"});
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

        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            json += (i ? ", \"" : "\"") + metrics_[i].first +
                    "\": " + metrics_[i].second;
        }
        json += "}}\n";
        std::fputs(("BENCH_JSON " + json).c_str(), stdout);

        finishTelemetry(name_, wallS);
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
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

