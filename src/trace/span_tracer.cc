#include "trace/span_tracer.hh"

// eval-lint: counters-only tracing flag, ring-capacity config, and drop/tid
// counters are independent observational atomics; event payloads are
// guarded by the per-thread-log mutex.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace eval {

namespace {

/** Shared epoch for every trace timestamp: captured once, before any
 *  span can be recorded (first call wins; the race window is the very
 *  first traceNowNs call, which happens on the main thread during
 *  flag parsing in practice). */
std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

std::atomic<bool> tracingFlag{false};
std::atomic<std::size_t> ringCapacityCfg{SpanTracer::kDefaultRingCapacity};
std::atomic<std::uint64_t> droppedEvents{0};
std::atomic<int> nextThreadId{0};

/**
 * One thread's event ring.  Owned jointly by the thread (thread_local
 * shared_ptr) and the global registry, so events survive thread exit
 * until export.  The mutex only guards ring storage against a
 * concurrent export; the owning thread never blocks on another
 * thread.
 */
/** One open span on a thread's stack.  The parent-path key is built
 *  once here, at open, so close-time profile folding is a single map
 *  lookup with a ready-made key. */
struct OpenFrame
{
    const char *name = nullptr;
    std::string path;            ///< semicolon-joined chain incl. name
    std::uint64_t childNs = 0;   ///< Σ inclusive ns of closed children
};

/** Profile bucket payload; the path is the map key (and its last
 *  semicolon-separated component is the leaf name). */
struct ProfileCell
{
    std::uint64_t count = 0;
    std::uint64_t inclNs = 0;
    std::uint64_t selfNs = 0;
};

struct ThreadLog
{
    std::mutex m;
    std::vector<SpanEvent> ring; ///< insertion ring, `next` = oldest
    std::size_t next = 0;
    int tid = 0;

    /** Open-span frame stack; touched only by the owning thread. */
    std::vector<OpenFrame> stack;

    /** Exact (never-evicting) profile, keyed by span path.  Guarded
     *  by the same mutex as the ring so one close takes one lock. */
    std::map<std::string, ProfileCell> profile;

    /** Record one closed span: ring append + profile fold under a
     *  single (uncontended) lock acquisition. */
    void
    close(SpanEvent &&ev, const std::string &path,
          std::uint64_t selfNs)
    {
        const std::size_t cap =
            std::max<std::size_t>(ringCapacityCfg.load(
                                      std::memory_order_relaxed),
                                  16);
        std::lock_guard<std::mutex> lock(m);
        ProfileCell &cell = profile[path];
        ++cell.count;
        cell.inclNs += ev.durNs;
        cell.selfNs += selfNs;
        if (ring.size() > cap) {
            // Capacity was lowered: restart the ring with the tail.
            ring.erase(ring.begin(),
                       ring.begin() +
                           static_cast<std::ptrdiff_t>(ring.size() - cap));
            next = 0;
        }
        if (ring.size() < cap) {
            ring.push_back(std::move(ev));
        } else {
            ring[next] = std::move(ev);
            next = (next + 1) % cap;
            droppedEvents.fetch_add(1, std::memory_order_relaxed);
        }
    }
};

struct Registry
{
    std::mutex m;
    std::vector<std::shared_ptr<ThreadLog>> logs;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: usable during exit
    return *r;
}

ThreadLog &
threadLog()
{
    thread_local std::shared_ptr<ThreadLog> log = [] {
        auto l = std::make_shared<ThreadLog>();
        l->tid = nextThreadId.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(registry().m);
        registry().logs.push_back(l);
        return l;
    }();
    return *log;
}

void
jsonEscapeInto(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

std::uint64_t
traceNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processEpoch())
            .count());
}

int
traceThreadId()
{
    return threadLog().tid;
}

SpanTracer &
SpanTracer::global()
{
    static SpanTracer tracer;
    return tracer;
}

void
SpanTracer::setEnabled(bool enabled)
{
    // Pin the epoch before the first event so ts=0 is process start.
    processEpoch();
    tracingFlag.store(enabled, std::memory_order_relaxed);
}

bool
SpanTracer::enabled() const
{
    return tracingFlag.load(std::memory_order_relaxed);
}

void
SpanTracer::setRingCapacity(std::size_t events)
{
    ringCapacityCfg.store(std::max<std::size_t>(events, 16),
                       std::memory_order_relaxed);
}

std::size_t
SpanTracer::ringCapacity() const
{
    return ringCapacityCfg.load(std::memory_order_relaxed);
}

std::size_t
SpanTracer::eventCount() const
{
    std::size_t n = 0;
    std::lock_guard<std::mutex> lock(registry().m);
    for (const auto &log : registry().logs) {
        std::lock_guard<std::mutex> logLock(log->m);
        n += log->ring.size();
    }
    return n;
}

std::uint64_t
SpanTracer::droppedCount() const
{
    return droppedEvents.load(std::memory_order_relaxed);
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(registry().m);
    for (const auto &log : registry().logs) {
        std::lock_guard<std::mutex> logLock(log->m);
        log->ring.clear();
        log->next = 0;
        log->profile.clear();
    }
    droppedEvents.store(0, std::memory_order_relaxed);
}

std::vector<SpanEvent>
SpanTracer::snapshotEvents() const
{
    std::vector<SpanEvent> out;
    {
        std::lock_guard<std::mutex> lock(registry().m);
        for (const auto &log : registry().logs) {
            std::lock_guard<std::mutex> logLock(log->m);
            out.insert(out.end(), log->ring.begin(), log->ring.end());
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SpanEvent &a, const SpanEvent &b) {
                  return std::tie(a.startNs, a.tid, a.depth) <
                         std::tie(b.startNs, b.tid, b.depth);
              });
    return out;
}

std::string
SpanTracer::traceEventJson() const
{
    const std::vector<SpanEvent> events = snapshotEvents();

    std::vector<int> tids;
    for (const SpanEvent &ev : events)
        tids.push_back(ev.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    char buf[64];
    for (int tid : tids) {
        if (!first)
            out += ",\n";
        first = false;
        out += "  {\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": 1, \"tid\": " +
               std::to_string(tid) + ", \"args\": {\"name\": \"" +
               (tid == 0 ? std::string("main")
                         : "worker-" + std::to_string(tid)) +
               "\"}}";
    }
    for (const SpanEvent &ev : events) {
        if (!first)
            out += ",\n";
        first = false;
        out += "  {\"name\": \"";
        jsonEscapeInto(out, ev.name);
        out += "\", \"cat\": \"eval\", \"ph\": \"X\", \"ts\": ";
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(ev.startNs) / 1000.0);
        out += buf;
        out += ", \"dur\": ";
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(ev.durNs) / 1000.0);
        out += buf;
        out += ", \"pid\": 1, \"tid\": " + std::to_string(ev.tid);
        out += ", \"args\": {";
        for (std::size_t i = 0; i < ev.args.size(); ++i) {
            out += (i ? ", \"" : "\"");
            jsonEscapeInto(out, ev.args[i].first);
            out += "\": " + ev.args[i].second;
        }
        out += "}}";
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

bool
SpanTracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = traceEventJson();
    const std::size_t written =
        std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = written == json.size() && std::fclose(f) == 0;
    if (!ok && written != json.size())
        std::fclose(f);
    return ok;
}

const char *
SpanTracer::currentSpanName()
{
    const ThreadLog &log = threadLog();
    return log.stack.empty() ? "" : log.stack.back().name;
}

std::vector<ProfileBucket>
SpanTracer::snapshotProfile() const
{
    std::map<std::string, ProfileBucket> merged;
    {
        std::lock_guard<std::mutex> lock(registry().m);
        for (const auto &log : registry().logs) {
            std::lock_guard<std::mutex> logLock(log->m);
            for (const auto &[path, cell] : log->profile) {
                ProfileBucket &b = merged[path];
                b.count += cell.count;
                b.inclNs += cell.inclNs;
                b.selfNs += cell.selfNs;
            }
        }
    }
    std::vector<ProfileBucket> out;
    out.reserve(merged.size());
    for (auto &[path, bucket] : merged) {
        bucket.path = path;
        const std::size_t cut = path.rfind(';');
        bucket.name =
            cut == std::string::npos ? path : path.substr(cut + 1);
        out.push_back(std::move(bucket));
    }
    return out;
}

std::string
SpanTracer::profileJson() const
{
    const std::vector<ProfileBucket> buckets = snapshotProfile();
    std::string out = "{\"schema_version\": 1, \"spans\": [";
    bool first = true;
    for (const ProfileBucket &b : buckets) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "  {\"path\": \"";
        jsonEscapeInto(out, b.path);
        out += "\", \"name\": \"";
        jsonEscapeInto(out, b.name);
        out += "\", \"count\": " + std::to_string(b.count);
        out += ", \"incl_ns\": " + std::to_string(b.inclNs);
        out += ", \"self_ns\": " + std::to_string(b.selfNs) + "}";
    }
    out += "\n]}\n";
    return out;
}

bool
SpanTracer::writeProfileJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = profileJson();
    const std::size_t written =
        std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = written == json.size() && std::fclose(f) == 0;
    if (!ok && written != json.size())
        std::fclose(f);
    return ok;
}

namespace trace_detail {

bool
tracingEnabled()
{
    return tracingFlag.load(std::memory_order_relaxed);
}

std::uint64_t
beginSpanImpl(const char *name)
{
    ThreadLog &log = threadLog();
    OpenFrame frame;
    frame.name = name;
    if (log.stack.empty()) {
        frame.path = name;
    } else {
        frame.path.reserve(log.stack.back().path.size() + 1 +
                           std::char_traits<char>::length(name));
        frame.path = log.stack.back().path;
        frame.path += ';';
        frame.path += name;
    }
    log.stack.push_back(std::move(frame));
    // Clock read last: path construction charges the parent's self
    // time, not this span's duration.
    return traceNowNs();
}

void
endSpanImpl(const char *name, std::uint64_t startNs,
            std::vector<std::pair<std::string, std::string>> &&args)
{
    const std::uint64_t now = traceNowNs();
    ThreadLog &log = threadLog();
    SpanEvent ev;
    ev.name = name;
    ev.startNs = startNs;
    ev.durNs = now > startNs ? now - startNs : 0;
    ev.tid = log.tid;
    ev.args = std::move(args);

    std::string path = name; // fallback for an unmatched close
    std::uint64_t childNs = 0;
    if (!log.stack.empty()) {
        OpenFrame &frame = log.stack.back();
        path = std::move(frame.path);
        childNs = frame.childNs;
        log.stack.pop_back();
        if (!log.stack.empty())
            log.stack.back().childNs += ev.durNs;
    }
    ev.depth = static_cast<int>(log.stack.size());
    const std::uint64_t selfNs =
        ev.durNs > childNs ? ev.durNs - childNs : 0;
    log.close(std::move(ev), path, selfNs);
}

} // namespace trace_detail

void
ScopedSpan::arg(const char *key, double value)
{
    if (!name_)
        return;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    args_.emplace_back(key, buf);
}

void
ScopedSpan::argUnsigned(const char *key, unsigned long long value)
{
    if (name_)
        args_.emplace_back(key, std::to_string(value));
}

void
ScopedSpan::argSigned(const char *key, long long value)
{
    if (name_)
        args_.emplace_back(key, std::to_string(value));
}

void
ScopedSpan::arg(const char *key, bool value)
{
    if (name_)
        args_.emplace_back(key, value ? "true" : "false");
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (!name_)
        return;
    std::string quoted = "\"";
    jsonEscapeInto(quoted, value);
    quoted += "\"";
    args_.emplace_back(key, std::move(quoted));
}

void
ScopedSpan::arg(const char *key, const char *value)
{
    arg(key, std::string(value));
}

} // namespace eval
