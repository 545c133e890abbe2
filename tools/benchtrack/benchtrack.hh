/**
 * @file
 * benchtrack — the BENCH_JSON regression tracker.
 *
 * Every bench prints one `BENCH_JSON {...}` footer line (see
 * bench/bench_common.hh).  benchtrack turns those one-off lines into
 * a history and a verdict:
 *
 *   benchtrack ingest --history DIR [FILE...]
 *       parse BENCH_JSON lines (raw bench stdout or bare JSONL) and
 *       append one entry per bench to DIR/<bench>.jsonl
 *   benchtrack report --history DIR [--window N] [--threshold PCT]
 *                     [--markdown FILE] [--json FILE] [--gate]
 *       compare each bench's newest entry against the mean of the
 *       previous N entries; classify every numeric metric as
 *       new / noise / improvement / regression and render a report.
 *
 * Two metrics carry a gating direction: `wall_clock_s` is
 * lower-is-better, `throughput_chips_per_s` (chips simulated per
 * wall second, see BenchReporter::addChips) is higher-is-better.  The
 * domain metrics (frequencies, speedups, ...) are informational: whether
 * "bigger" is better depends on the metric, and correctness of those
 * values is the golden tests' job, not benchtrack's.
 *
 * Exit codes (report): 0 ok, 1 gated regression found (with --gate),
 * 2 usage/IO error.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eval {
namespace benchtrack {

/** One bench run, as parsed from a BENCH_JSON footer line. */
struct Entry
{
    std::string bench;
    double wallClockS = 0.0;
    std::int64_t threads = 0;
    std::int64_t peakRssKb = 0;         ///< 0 = footer predates field
    /** Numeric metrics only; string metrics are dropped on ingest. */
    std::map<std::string, double> metrics;
    /** Per-span self time (ms, keyed by span name) from the footer's
     *  compact `span_self_ms` map; empty when the bench ran without
     *  tracing (or predates the field).  Not compared as metrics —
     *  this is the evidence the wall-clock blame is computed from. */
    std::map<std::string, double> spanSelfMs;
};

/** Parse one line.  Accepts both the raw stdout form
 *  ("BENCH_JSON {...}") and the bare JSONL object form; returns
 *  false (without touching @p out) for anything else. */
bool parseEntry(const std::string &line, Entry &out);

/** Parse every footer in @p text (a file's contents). */
std::vector<Entry> parseEntries(const std::string &text);

/** Append entries to per-bench JSONL files under @p historyDir
 *  (created if missing).  Returns the number appended. */
std::size_t ingest(const std::vector<Entry> &entries,
                   const std::string &historyDir);

/** Load one bench's history file (oldest first). */
std::vector<Entry> loadHistory(const std::string &path);

/** Verdict for one metric of one bench. */
enum class Delta { New, Noise, Improvement, Regression };

const char *deltaName(Delta d);

/** Gating direction of a metric: which way a beyond-threshold move
 *  counts as a regression.  None = informational only. */
enum class GateDir { None, LowerBetter, HigherBetter };

/** The built-in gating policy (wall_clock_s lower-is-better,
 *  throughput_chips_per_s higher-is-better, everything else None). */
GateDir gateDir(const std::string &metric);

const char *gateDirName(GateDir d);

struct MetricReport
{
    std::string bench;
    std::string metric;
    double current = 0.0;
    double baseline = 0.0;       ///< mean of the comparison window
    double deltaPct = 0.0;       ///< (current - baseline) / |baseline|
    std::size_t window = 0;      ///< prior entries actually compared
    Delta verdict = Delta::New;
    GateDir dir = GateDir::None; ///< gating direction of this metric
    bool gated = false;          ///< counts toward the failure verdict
};

/** One span's contribution to a wall-clock regression. */
struct SpanBlame
{
    std::string span;         ///< span name from span_self_ms
    double currentMs = 0.0;   ///< newest entry's self time
    double baselineMs = 0.0;  ///< window mean (absent entries = 0)
    double deltaMs = 0.0;     ///< currentMs - baselineMs
};

/** Blame attached to a bench whose wall_clock_s gate tripped: the
 *  top spans by self-time growth, newest vs the same comparison
 *  window the gate used.  Only entries that carried span data count
 *  toward the baseline mean, so untraced runs don't dilute it. */
struct BenchBlame
{
    std::string bench;
    std::vector<SpanBlame> topSpans; ///< delta desc, at most 3
};

struct Report
{
    std::vector<MetricReport> rows;
    std::vector<BenchBlame> blames; ///< one per blamed bench
    std::size_t regressions = 0; ///< gated regressions only

    std::string toMarkdown(double thresholdPct) const;
    std::string toJson(double thresholdPct) const;
};

/**
 * Compare the newest entry of every bench under @p historyDir with
 * the mean of up to @p window prior entries.  A |delta| below
 * @p thresholdPct is Noise.  Gated metrics (wall_clock_s lower is
 * better, throughput_chips_per_s higher is better) count regressions
 * against their direction; for other metrics the verdict is
 * informational and a change beyond the threshold reports as
 * Improvement/Regression by sign only.
 */
Report report(const std::string &historyDir, std::size_t window,
              double thresholdPct);

/** CLI entry point (argv without the program name). */
int runBenchtrack(const std::vector<std::string> &args);

} // namespace benchtrack
} // namespace eval
