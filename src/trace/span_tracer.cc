#include "trace/span_tracer.hh"

// eval-lint: counters-only the tracing flag and the tid counter are
// independent observational atomics; profile buckets are guarded by the
// per-thread-log mutex.

#include <atomic>
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
std::atomic<int> nextThreadId{0};

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

/**
 * One thread's profile.  Owned jointly by the thread (thread_local
 * shared_ptr) and the global registry, so buckets survive thread exit
 * until export.  The mutex only guards the profile against a
 * concurrent export; the owning thread never blocks on another
 * thread.
 */
struct ThreadLog
{
    std::mutex m;
    int tid = 0;

    /** Open-span frame stack; touched only by the owning thread. */
    std::vector<OpenFrame> stack;

    /** Exact (never-evicting) profile, keyed by span path. */
    std::map<std::string, ProfileCell> profile;
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
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(registry().m);
    for (const auto &log : registry().logs) {
        std::lock_guard<std::mutex> logLock(log->m);
        log->profile.clear();
    }
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

bool
ScopedSpan::tracingEnabled()
{
    return tracingFlag.load(std::memory_order_relaxed);
}

std::uint64_t
ScopedSpan::beginSpanImpl(const char *name)
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
ScopedSpan::endSpanImpl(const char *name, std::uint64_t startNs)
{
    const std::uint64_t now = traceNowNs();
    const std::uint64_t durNs = now > startNs ? now - startNs : 0;
    ThreadLog &log = threadLog();

    std::string path = name; // fallback for an unmatched close
    std::uint64_t childNs = 0;
    if (!log.stack.empty()) {
        OpenFrame &frame = log.stack.back();
        path = std::move(frame.path);
        childNs = frame.childNs;
        log.stack.pop_back();
        if (!log.stack.empty())
            log.stack.back().childNs += durNs;
    }
    std::lock_guard<std::mutex> lock(log.m);
    ProfileCell &cell = log.profile[path];
    ++cell.count;
    cell.inclNs += durNs;
    cell.selfNs += durNs > childNs ? durNs - childNs : 0;
}

} // namespace eval
