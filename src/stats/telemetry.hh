/**
 * @file
 * The one telemetry hookup shared by eval_cli and eval_paper.  A run
 * names up to four output files; startTelemetry() turns on the
 * recorders they need, stamps them into the run manifest, and
 * installs a std::atexit hook and a chained std::terminate handler
 * that write them all, so the files survive fatal() and
 * uncaught-exception exits mid-run.  finishTelemetry() is the
 * normal-exit path.  The files are written at most once, whichever
 * path comes first; a failing writer is skipped, never rethrown.
 *
 *   stats      StatRegistry counters, nested JSON
 *   decisions  DecisionTrace, JSONL, one adaptation decision per line
 *   profile    SpanTracer profile.json (DESIGN.md Sec 5j)
 *   manifest   RunManifest provenance (src/trace/manifest.hh)
 *
 * An empty path turns that output off.
 */

#pragma once

#include <string>

namespace eval {

struct TelemetryPaths
{
    std::string stats;
    std::string decisions;
    std::string profile;
    std::string manifest;
};

/** Enable the decision trace and the span tracer when their paths are
 *  set, record @p tool and every set path in the run manifest, and
 *  arm the exit flush that writes the files. */
void startTelemetry(const std::string &tool, const TelemetryPaths &paths);

/** Write every telemetry file now (a no-op once written).  The
 *  caller records its stages in the manifest first. */
void finishTelemetry();

} // namespace eval
