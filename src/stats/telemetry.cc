#include "stats/telemetry.hh"

#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>

#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

namespace {

/** The paths startTelemetry was given, until they are written.
 *  Leaked so the atexit/terminate hooks can run during teardown
 *  regardless of static destruction order. */
struct PendingFlush
{
    std::mutex m;
    std::optional<TelemetryPaths> paths;
    bool hooksInstalled = false;
    std::terminate_handler previousTerminate = nullptr;
};

PendingFlush &
pending()
{
    static PendingFlush *p = new PendingFlush;
    return *p;
}

void
writeTelemetry(const TelemetryPaths &paths)
{
    if (!paths.stats.empty())
        StatRegistry::global().writeJson(paths.stats);
    if (!paths.decisions.empty())
        DecisionTrace::global().writeJsonl(paths.decisions);
    if (!paths.profile.empty() &&
        !SpanTracer::global().writeProfileJson(paths.profile))
        warn("failed to write span profile to ", paths.profile);
    if (!paths.manifest.empty() &&
        !RunManifest::global().write(paths.manifest))
        warn("failed to write manifest to ", paths.manifest);
}

/** Write the pending files, at most once per startTelemetry: the
 *  paths are taken out under the lock and written outside it, so a
 *  crash inside a writer that re-enters here finds nothing left. */
void
flushPending() noexcept
{
    std::optional<TelemetryPaths> paths;
    {
        std::lock_guard<std::mutex> lock(pending().m);
        paths.swap(pending().paths);
    }
    if (!paths)
        return;
    try {
        writeTelemetry(*paths);
    } catch (...) {
        // Flushing is best-effort during teardown.
    }
}

[[noreturn]] void
terminateWithFlush()
{
    flushPending();
    std::terminate_handler previous;
    {
        std::lock_guard<std::mutex> lock(pending().m);
        previous = pending().previousTerminate;
    }
    if (previous)
        previous();
    std::abort();
}

} // namespace

void
startTelemetry(const std::string &tool, const TelemetryPaths &paths)
{
    if (!paths.decisions.empty())
        DecisionTrace::global().setEnabled(true);
    if (!paths.profile.empty())
        SpanTracer::global().setEnabled(true);

    RunManifest &manifest = RunManifest::global();
    manifest.setTool(tool);
    if (!paths.stats.empty())
        manifest.setOutput("stats", paths.stats);
    if (!paths.decisions.empty())
        manifest.setOutput("decision_trace", paths.decisions);
    if (!paths.profile.empty())
        manifest.setOutput("span_profile", paths.profile);

    // fatal() exits through std::exit and an uncaught exception
    // through std::terminate; both still write the files.
    PendingFlush &p = pending();
    std::lock_guard<std::mutex> lock(p.m);
    if (!p.hooksInstalled) {
        p.hooksInstalled = true;
        std::atexit([] { flushPending(); });
        p.previousTerminate = std::set_terminate(terminateWithFlush);
    }
    p.paths = paths;
}

void
finishTelemetry()
{
    flushPending();
}

} // namespace eval
