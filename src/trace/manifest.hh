/**
 * @file
 * Run provenance manifest: every eval_cli / bench run can write one
 * `manifest.json` describing exactly what ran — git SHA, build
 * type/compiler/flags, sanitizer mode, seed, thread count, a hash of
 * the experiment configuration, per-stage wall times, peak RSS, and
 * the paths of every telemetry artifact the run produced.  A bench
 * number without its manifest is unreproducible.
 *
 * Schema (stable member order, schema_version bumps on change; the
 * golden test tests/golden/manifest_schema_test.cpp pins it):
 *
 *   {
 *     "schema_version": 1,
 *     "tool": "bench_microbench",
 *     "git_sha": "abc123...",
 *     "build": {"type": ..., "compiler": ..., "flags": ...,
 *               "sanitizer": ...},
 *     "run": {"seed": 1, "threads": 8,
 *             "config_hash": "0x...", "config": "<fingerprint>"},
 *     "stages": [{"name": "sweep", "wall_s": 1.234}, ...],
 *     "outputs": {"stats": "...", ...},     // only paths actually set
 *     "peak_rss_kb": 123456
 *   }
 *
 * Build identity comes from compile definitions baked in by
 * src/trace/CMakeLists.txt at configure time (the SHA is the
 * configure-time HEAD; a stale value means "reconfigure", which CI
 * always does from scratch).
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace eval {

/** Configure-time build identity (see CMakeLists definitions). */
const char *buildGitSha();
const char *buildType();
const char *buildCompiler();
const char *buildFlags();
const char *buildSanitizer();

/** Peak resident set size of this process so far, in KiB (Linux
 *  getrusage ru_maxrss; 0 if unavailable). */
long peakRssKb();

/** FNV-1a over a byte string (config fingerprints, cache keys). */
std::uint64_t fnv1a(const std::string &bytes);

/**
 * The manifest under construction for this process.  Writers fill it
 * as the run progresses; write() serializes the schema above.  All
 * methods are thread-safe (a parallel bench may add stages from the
 * submitting thread while workers run).
 */
class RunManifest
{
  public:
    static RunManifest &global();

    void setTool(const std::string &name);
    void setSeed(std::uint64_t seed);
    void setThreads(std::size_t threads);

    /** Record the experiment-config fingerprint; the manifest stores
     *  both the string and its FNV-1a hash. */
    void setConfig(const std::string &fingerprint);

    /** Append one completed stage and its wall-clock seconds. */
    void addStage(const std::string &name, double wallS);

    /** Record a telemetry artifact this run wrote ("stats",
     *  "decision_trace", "span_profile"). */
    void setOutput(const std::string &key, const std::string &path);

    std::string json() const;
    bool write(const std::string &path) const;

    /** Forget everything set so far (tests). */
    void reset();

  private:
    RunManifest() = default;
};

} // namespace eval
