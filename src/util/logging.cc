#include "util/logging.hh"

// eval-lint: counters-only quiet/level/timestamp/thread flags are independent
// logging config reads with no payload to order against.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>

#include "trace/span_tracer.hh"

namespace eval {

namespace {

bool
envTruthy(const char *name)
{
    const char *v = std::getenv(name);
    return v && (std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
                 std::strcmp(v, "yes") == 0);
}

std::atomic<bool> quietFlag{false};
std::atomic<bool> timestampsFlag{envTruthy("EVAL_LOG_TIMESTAMPS")};
std::atomic<bool> threadsFlag{envTruthy("EVAL_LOG_THREADS")};

LogLevel
levelFromEnv()
{
    const char *v = std::getenv("EVAL_LOG_LEVEL");
    if (!v)
        return LogLevel::Inform;
    if (std::strcmp(v, "info") == 0 || std::strcmp(v, "inform") == 0)
        return LogLevel::Inform;
    if (std::strcmp(v, "warn") == 0 || std::strcmp(v, "warning") == 0)
        return LogLevel::Warn;
    if (std::strcmp(v, "fatal") == 0 || std::strcmp(v, "quiet") == 0 ||
        std::strcmp(v, "none") == 0) {
        return LogLevel::Fatal;
    }
    std::fprintf(stderr,
                 "[warn] unknown EVAL_LOG_LEVEL '%s' "
                 "(info|warn|fatal|quiet); using info\n",
                 v);
    return LogLevel::Inform;
}

std::atomic<int> minLevel{static_cast<int>(levelFromEnv())};

} // namespace

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
isQuiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

void
setMinLogLevel(LogLevel level)
{
    minLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel
minLogLevel()
{
    return static_cast<LogLevel>(
        minLevel.load(std::memory_order_relaxed));
}

void
setLogTimestamps(bool enabled)
{
    timestampsFlag.store(enabled, std::memory_order_relaxed);
}

bool
logTimestamps()
{
    return timestampsFlag.load(std::memory_order_relaxed);
}

void
setLogThreads(bool enabled)
{
    threadsFlag.store(enabled, std::memory_order_relaxed);
}

bool
logThreads()
{
    return threadsFlag.load(std::memory_order_relaxed);
}

namespace detail {

namespace {

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

/** "+S.mmms " prefix on the monotonic trace clock, or an empty
 *  string when disabled.  Monotonic (not wall-clock) so prefixes
 *  match span-trace timestamps and survive clock adjustments. */
std::string
timestampPrefix()
{
    if (!logTimestamps())
        return "";
    const std::uint64_t ns = traceNowNs();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "+%llu.%03llus ",
                  static_cast<unsigned long long>(ns / 1000000000ULL),
                  static_cast<unsigned long long>(ns / 1000000ULL %
                                                  1000ULL));
    return buf;
}

/** "[tN span.name] " prefix, or an empty string when disabled. */
std::string
threadPrefix()
{
    if (!logThreads())
        return "";
    std::string out = "[t" + std::to_string(traceThreadId());
    const char *span = SpanTracer::currentSpanName();
    if (span && span[0] != '\0') {
        out += ' ';
        out += span;
    }
    out += "] ";
    return out;
}

bool
suppressed(LogLevel level)
{
    if (level == LogLevel::Fatal || level == LogLevel::Panic)
        return false;
    if (isQuiet())
        return true;
    return static_cast<int>(level) <
           static_cast<int>(minLogLevel());
}

} // namespace

void
printMessage(LogLevel level, const std::string &msg)
{
    if (suppressed(level))
        return;
    std::fprintf(stderr, "%s%s[%s] %s\n", timestampPrefix().c_str(),
                 threadPrefix().c_str(), levelTag(level), msg.c_str());
}

void
terminateWithMessage(LogLevel level, const std::string &msg,
                     const char *file, int line)
{
    std::fprintf(stderr, "%s%s[%s] %s (%s:%d)\n",
                 timestampPrefix().c_str(), threadPrefix().c_str(),
                 levelTag(level), msg.c_str(), file, line);
    // A panic goes through std::terminate, not std::abort, so the
    // handler startTelemetry chains in still flushes the run's files
    // before the default handler aborts (SIGABRT).
    if (level == LogLevel::Panic)
        std::terminate();
    std::exit(1);
}

} // namespace detail

} // namespace eval
