/**
 * @file
 * Span tracer: the exact per-region wall-time profile.
 *
 * Where the stats layer (src/stats) counts events, spans answer "how
 * much wall time went into region X, nested under what": every close
 * of an instrumented region folds into one (parent-path, name)
 * bucket, and the run exports the buckets as profile.json
 * (DESIGN.md Sec 5j), which tools/eval_prof renders and diffs.
 *
 * Design (ScopedSpan is the project's only timing primitive):
 *  - Disabled is the hot case: a ScopedSpan on a disabled tracer
 *    costs one relaxed atomic load and records nothing — no clock
 *    read, no allocation, no lock.
 *  - Enabled recording is contention-free: every thread folds into
 *    its own profile map.  The only lock a close takes is that map's
 *    own uncontended mutex (needed so a concurrent export cannot read
 *    a half-updated bucket); threads never contend with each other on
 *    the hot path.
 *  - Spans nest: each thread keeps a stack of open spans.  A bucket
 *    accumulates count, inclusive ns, and self ns (inclusive minus the
 *    inclusive time of direct children).  The profile never evicts:
 *    counts are exact for the whole run no matter how long it is.
 *    The innermost open span name is queryable (currentSpanName) so
 *    the logging layer can stamp lines with their span context.
 *  - Spans cover regions, not per-access work: a PE evaluation or
 *    thermal solve is far too cheap for an every-call span, so those
 *    are counted exactly by stats counters (timing.error_evals,
 *    thermal.solves) and their time lands in the enclosing span's
 *    self time.
 *  - This file is the home of wall-clock reads for tracing: model
 *    code does not read clocks, but may open spans freely.
 *
 * ScopedSpan is the ONLY way to create a span, and the type itself
 * keeps it a stack local: the raw open/close calls are its private
 * members, and it can be neither copied, moved, nor heap-allocated.
 * A span handle that escaped its scope could close out of stack order
 * and charge the wrong parent path.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eval {

/** Monotonic nanoseconds since process start (the sanctioned trace
 *  clock: logging timestamps and span times share this epoch). */
std::uint64_t traceNowNs();

/** Stable, small, process-unique id of the calling thread (assigned
 *  on first use; the first thread to ask gets 0). */
int traceThreadId();

/** One (parent-path, name) profile bucket.  `path` is the semicolon-
 *  joined open-span chain ending in `name` (collapsed-stack key, e.g.
 *  "fig13;mc.chip;optimizer.choose"); counts are exact u64 sums, so
 *  two runs' buckets compare span by span (tools/eval_prof diff). */
struct ProfileBucket
{
    std::string path;
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t inclNs = 0;
    std::uint64_t selfNs = 0; ///< inclNs minus direct children's inclNs
};

/**
 * The process-wide span sink.  Use SpanTracer::global(); private
 * instances exist only inside tests.
 */
class SpanTracer
{
  public:
    static SpanTracer &global();

    void setEnabled(bool enabled);
    bool enabled() const;

    /** Drop every profile bucket (keeps thread registrations). */
    void clear();

    /**
     * Profile buckets merged across every thread (same path on two
     * threads folds into one bucket), sorted by path.  Exact for the
     * whole run; spans still open are not yet counted.
     */
    std::vector<ProfileBucket> snapshotProfile() const;

    /** Profile export: {"schema_version": 1, "spans": [{"path",
     *  "name", "count", "incl_ns", "self_ns"}...]} sorted by path —
     *  the format tools/eval_prof consumes (DESIGN.md Sec 5j). */
    std::string profileJson() const;

    /** Write profileJson() to @p path; false on I/O failure. */
    bool writeProfileJson(const std::string &path) const;

    /** Innermost open span name on the calling thread ("" if none). */
    static const char *currentSpanName();
};

/**
 * RAII span: times its scope into the profile when tracing is
 * enabled, and is a single relaxed atomic load when disabled.  A span
 * IS its scope: it cannot be copied, moved or heap-allocated, and
 * nothing else can open or close one.
 *
 *     ScopedSpan span("optimizer.choose");
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : name_(tracingEnabled() ? name : nullptr)
    {
        if (name_)
            start_ = beginSpanImpl(name_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ScopedSpan(ScopedSpan &&) = delete;
    ScopedSpan &operator=(ScopedSpan &&) = delete;
    static void *operator new(std::size_t) = delete;
    static void *operator new[](std::size_t) = delete;

    ~ScopedSpan()
    {
        if (name_)
            endSpanImpl(name_, start_);
    }

  private:
    static bool tracingEnabled();
    /** Push the open-span frame (building the parent-path key once, at
     *  open) and return the start time. */
    static std::uint64_t beginSpanImpl(const char *name);
    /** Pop the frame, attribute self time to the closing span and
     *  inclusive time to its parent's child accumulator, and fold the
     *  profile bucket. */
    static void endSpanImpl(const char *name, std::uint64_t startNs);

    const char *name_;        ///< nullptr = tracing was disabled
    std::uint64_t start_ = 0;
};

} // namespace eval
