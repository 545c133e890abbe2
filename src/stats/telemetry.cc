#include "stats/telemetry.hh"

#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/exit_flush.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

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

    ExitFlush::global().add(tool + ".telemetry", [paths] {
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
    });
}

void
finishTelemetry()
{
    ExitFlush::global().runNow();
}

} // namespace eval
