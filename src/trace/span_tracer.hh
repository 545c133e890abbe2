/**
 * @file
 * Low-overhead span tracer with Chrome/Perfetto trace_event export.
 *
 * Where the stats layer (src/stats) counts events, spans answer
 * "where did the wall-clock of THIS run go, on which thread, nested
 * under what" (and, through the profile, "how much time went into
 * region X in total"): every instrumented
 * region records one complete event (begin timestamp + duration +
 * thread id + optional key/value args), and the whole run exports as
 * a single JSON file that https://ui.perfetto.dev (or Chrome's
 * about:tracing) renders as a multi-thread timeline.
 *
 * Design (ScopedSpan is the project's only timing primitive):
 *  - Disabled is the hot case: a ScopedSpan on a disabled tracer
 *    costs one relaxed atomic load and records nothing — no clock
 *    read, no allocation, no lock.  Benches assert this stays true
 *    (bench_parallel_scaling footer).
 *  - Enabled recording is contention-free: every thread appends to
 *    its own fixed-capacity ring buffer.  The only lock an append
 *    takes is the buffer's own uncontended mutex (needed so a
 *    concurrent export cannot read half-written events); threads
 *    never contend with each other on the hot path.  When a ring
 *    fills, the oldest events are evicted (and counted), so tracing
 *    an arbitrarily long run is bounded-memory and the export keeps
 *    the most recent window.
 *  - Spans nest: each thread keeps a stack of open spans, and the
 *    exporter emits Chrome "X" (complete) events whose time
 *    containment reproduces the nesting in the UI.  The innermost
 *    open span name is queryable (currentSpanName) so the logging
 *    layer can stamp lines with their span context.
 *  - Every close also folds into the per-thread span PROFILE: a
 *    (parent-path, name) bucket accumulating count, inclusive ns, and
 *    self ns (inclusive minus the inclusive time of direct children).
 *    Unlike the ring, the profile never evicts — counts are exact for
 *    the whole run no matter how long it is — and it exports as
 *    profile.json (see DESIGN.md Sec 5j for the schema and the
 *    cross-shard merge semantics).
 *  - Spans cover regions, not per-access work: a PE evaluation or
 *    thermal solve is far too cheap for an every-call span, so those
 *    are counted exactly by stats counters (timing.error_evals,
 *    thermal.solves) and their time lands in the enclosing span's
 *    self time.
 *  - This file is the sanctioned home of wall-clock reads for
 *    tracing (see the det-wallclock lint rule): model code must not
 *    read clocks, but may open spans freely.
 *
 * Escape hatch discipline: ScopedSpan is the ONLY way model code may
 * create spans.  The raw beginSpan/endSpan handle API exists for the
 * tracer's own internals and is lint-banned elsewhere
 * (obs-span-leak), because a span handle that escapes its scope
 * produces overlapping, un-nestable events.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace eval {

/** Monotonic nanoseconds since process start (the sanctioned trace
 *  clock: logging timestamps and span events share this epoch). */
std::uint64_t traceNowNs();

/** Stable, small, process-unique id of the calling thread (assigned
 *  on first use; the first thread to ask gets 0). */
int traceThreadId();

/** One recorded span, as stored in the ring and exported to JSON.
 *  Args are pre-rendered JSON tokens (numbers raw, strings quoted)
 *  so export is a pure serialization pass. */
struct SpanEvent
{
    std::string name;
    std::uint64_t startNs = 0; ///< traceNowNs() at open
    std::uint64_t durNs = 0;
    int tid = 0;
    int depth = 0;             ///< nesting depth at open (0 = top)
    std::vector<std::pair<std::string, std::string>> args;
};

/** One (parent-path, name) profile bucket.  `path` is the semicolon-
 *  joined open-span chain ending in `name` (collapsed-stack key, e.g.
 *  "fig13;mc.chip;optimizer.choose"); counts are exact u64 sums, so
 *  buckets merge associatively by summing (see src/shard trace
 *  merge). */
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
    static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

    static SpanTracer &global();

    void setEnabled(bool enabled);
    bool enabled() const;

    /** Per-thread ring capacity (events).  Applies to rings created
     *  after the call; existing rings are trimmed on their next
     *  append.  Minimum 16. */
    void setRingCapacity(std::size_t events);
    std::size_t ringCapacity() const;

    /** Buffered events across all thread rings. */
    std::size_t eventCount() const;

    /** Events evicted from full rings since the last clear(). */
    std::uint64_t droppedCount() const;

    /** Drop every buffered event and profile bucket (keeps thread
     *  registrations). */
    void clear();

    /** Copy of every buffered event, sorted by start time.  The
     *  tracer should be quiescent (no spans concurrently closing) for
     *  a complete snapshot; a racing append is safe but may or may
     *  not be included. */
    std::vector<SpanEvent> snapshotEvents() const;

    /**
     * Chrome trace_event JSON ("trace viewer" / Perfetto format):
     * {"traceEvents": [...], "displayTimeUnit": "ms"} with one
     * ph:"X" complete event per span (ts/dur in microseconds) plus
     * ph:"M" thread_name metadata per thread.
     */
    std::string traceEventJson() const;

    /** Write traceEventJson() to @p path; false on I/O failure. */
    bool writeJson(const std::string &path) const;

    /**
     * Profile buckets merged across every thread (same path on two
     * threads folds into one bucket), sorted by path.  Exact for the
     * whole run: unlike snapshotEvents(), ring eviction never loses
     * profile counts.  Spans still open are not yet counted.
     */
    std::vector<ProfileBucket> snapshotProfile() const;

    /** Profile export: {"schema_version": 1, "spans": [{"path",
     *  "name", "count", "incl_ns", "self_ns"}...]} sorted by path —
     *  the format tools/eval_prof and the shard fleet merge consume
     *  (DESIGN.md Sec 5j). */
    std::string profileJson() const;

    /** Write profileJson() to @p path; false on I/O failure. */
    bool writeProfileJson(const std::string &path) const;

    /** Innermost open span name on the calling thread ("" if none). */
    static const char *currentSpanName();
};

namespace trace_detail {

/** Tracer-internal span open/close (the raw handle API wrapped by
 *  ScopedSpan).  Outside src/trace the obs-span-leak lint rule bans
 *  these: use ScopedSpan.  beginSpanImpl pushes the open-span frame
 *  (building the parent-path key once, at open); endSpanImpl pops it,
 *  attributes self time to the closing span and inclusive time to its
 *  parent's child accumulator, and folds the profile bucket. */
std::uint64_t beginSpanImpl(const char *name);
void endSpanImpl(const char *name, std::uint64_t startNs,
                 std::vector<std::pair<std::string, std::string>> &&args);
bool tracingEnabled();

} // namespace trace_detail

/**
 * RAII span: records one complete event from construction to
 * destruction when tracing is enabled, and is a single relaxed
 * atomic load when disabled.  Deliberately immovable and
 * uncopyable — a span IS its scope (see obs-span-leak).
 *
 *     ScopedSpan span("optimizer.choose");
 *     span.arg("subsystems", n);
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : name_(trace_detail::tracingEnabled() ? name : nullptr)
    {
        if (name_)
            start_ = trace_detail::beginSpanImpl(name_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ScopedSpan(ScopedSpan &&) = delete;
    ScopedSpan &operator=(ScopedSpan &&) = delete;

    ~ScopedSpan()
    {
        if (name_)
            trace_detail::endSpanImpl(name_, start_, std::move(args_));
    }

    /** Attach a key/value arg (no-op when the tracer was disabled at
     *  construction).  Numbers render raw, strings render quoted. */
    void arg(const char *key, double value);
    void arg(const char *key, bool value);
    void arg(const char *key, const std::string &value);
    void arg(const char *key, const char *value);
    /** Any integer type (int, std::size_t, std::uint64_t, ...);
     *  a template so platform-dependent typedef aliasing cannot
     *  create duplicate overloads. */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    void arg(const char *key, T value)
    {
        if constexpr (std::is_signed_v<T>)
            argSigned(key, static_cast<long long>(value));
        else
            argUnsigned(key,
                        static_cast<unsigned long long>(value));
    }

  private:
    void argSigned(const char *key, long long value);
    void argUnsigned(const char *key, unsigned long long value);

    const char *name_;        ///< nullptr = tracing was disabled
    std::uint64_t start_ = 0;
    std::vector<std::pair<std::string, std::string>> args_;
};

} // namespace eval
