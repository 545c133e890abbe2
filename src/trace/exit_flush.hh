/**
 * @file
 * Crash-safe telemetry flushing.  A run that dies mid-experiment —
 * fatal() config error, uncaught exception, EVAL_ASSERT — used to
 * lose every telemetry artifact (--stats-out, --trace-out,
 * --profile-out, manifest.json) because the writers only ran on the
 * happy path.  ExitFlush keeps a registry of flush closures and runs
 * whatever is still pending from a std::atexit hook and from a
 * std::terminate handler, so partial telemetry survives the abort
 * (often exactly the telemetry you need to debug it).
 *
 * eval_cli and the benches register their one closure through
 * startTelemetry (src/stats/telemetry.hh).
 *
 * Protocol:
 *  - Register each writer once its destination is known:
 *        const int id = ExitFlush::global().add("stats", [] {...});
 *  - On the normal path, call runNow() (runs and clears everything)
 *    or remove(id) after writing yourself.
 *  - Closures must be safe to run late in process teardown: they are
 *    invoked after main() returns (atexit) or from the terminate
 *    handler, exceptions are swallowed, and each closure runs at
 *    most once.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace eval {

class ExitFlush
{
  public:
    static ExitFlush &global();

    /**
     * Register a flush closure under a diagnostic @p label; returns
     * an id for remove().  The first registration installs the
     * atexit hook and chains the terminate handler.
     */
    int add(const std::string &label, std::function<void()> fn);

    /** Unregister (the writer ran on the normal path). */
    void remove(int id);

    /** Run every pending closure and clear the registry.  Idempotent;
     *  safe to call from handlers.  Exceptions are swallowed. */
    void runNow();

    /** Closures currently registered. */
    std::size_t pending() const;
};

} // namespace eval
