/**
 * @file
 * Status-message and error-reporting helpers, in the spirit of gem5's
 * base/logging facilities.
 *
 * panic() is for internal invariant violations (simulator bugs); it
 * calls std::terminate, which aborts after any installed terminate
 * handler (startTelemetry's flush) has run.  fatal() is for user
 * errors (bad configuration, impossible parameters); it exits with an
 * error code.  warn() and inform() print
 * status without stopping the run.
 *
 * Output filtering (thread-safe):
 *  - EVAL_LOG_LEVEL=info|warn|fatal|quiet sets the minimum severity
 *    printed ("quiet" silences everything below fatal, like
 *    setQuiet(true)); setMinLogLevel() overrides it programmatically.
 *  - EVAL_LOG_TIMESTAMPS=1 prefixes each line with "+S.mmms": seconds
 *    on the monotonic trace clock since process start (traceNowNs()),
 *    so log lines line up with span-trace timestamps and never jump
 *    on wall-clock adjustments.
 *  - EVAL_LOG_THREADS=1 prefixes each line with "[tN span.name]": the
 *    stable trace thread id plus the innermost open span on the
 *    calling thread, tying interleaved parallel log output back to
 *    the timeline.
 */

#pragma once

#include <cstdlib>
#include <sstream>
#include <string>

namespace eval {

/** Severity of a log message. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

namespace detail {

/** Print a formatted log line and, for Fatal/Panic, terminate. */
[[noreturn]] void terminateWithMessage(LogLevel level,
                                       const std::string &msg,
                                       const char *file, int line);

void printMessage(LogLevel level, const std::string &msg);

/** Fold a parameter pack into one string. */
template <typename... Args>
std::string
concatenate(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Abort with a message: only for internal invariant violations. */
template <typename... Args>
[[noreturn]] void
panic(const char *file, int line, Args &&...args)
{
    detail::terminateWithMessage(LogLevel::Panic,
                                 detail::concatenate(args...), file, line);
}

/** Exit with a message: for user/configuration errors. */
template <typename... Args>
[[noreturn]] void
fatal(const char *file, int line, Args &&...args)
{
    detail::terminateWithMessage(LogLevel::Fatal,
                                 detail::concatenate(args...), file, line);
}

/** Print a warning and continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::printMessage(LogLevel::Warn, detail::concatenate(args...));
}

/** Print an informational message and continue. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::printMessage(LogLevel::Inform, detail::concatenate(args...));
}

/** Globally silence inform()/warn() output (used by benches). */
void setQuiet(bool quiet);
bool isQuiet();

/** Minimum severity that is printed (default from EVAL_LOG_LEVEL). */
void setMinLogLevel(LogLevel level);
LogLevel minLogLevel();

/** Prefix log lines with monotonic run timestamps
 *  (EVAL_LOG_TIMESTAMPS). */
void setLogTimestamps(bool enabled);
bool logTimestamps();

/** Prefix log lines with thread id + span context (EVAL_LOG_THREADS). */
void setLogThreads(bool enabled);
bool logThreads();

} // namespace eval

#define EVAL_PANIC(...) ::eval::panic(__FILE__, __LINE__, __VA_ARGS__)
#define EVAL_FATAL(...) ::eval::fatal(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; active in all build types. */
#define EVAL_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::eval::panic(__FILE__, __LINE__, "assertion '" #cond           \
                          "' failed: ", ##__VA_ARGS__);                     \
        }                                                                   \
    } while (0)

