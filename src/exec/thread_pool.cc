#include "exec/thread_pool.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "trace/span_tracer.hh"

namespace eval {

namespace {

/** Pool whose region the current thread is executing (nested
 *  parallelFor detection).  Set for workers and for the submitting
 *  thread while it participates. */
thread_local const ThreadPool *currentPool = nullptr;

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(std::max<std::size_t>(threads, 1))
{
    workers_.reserve(threads_ - 1);
    for (std::size_t i = 0; i + 1 < threads_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i + 1); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

bool
ThreadPool::insideThisPool() const
{
    return currentPool == this;
}

bool
ThreadPool::claimOwn(Region &region, std::size_t self, std::size_t &b,
                     std::size_t &e)
{
    Span &span = region.spans[self];
    std::lock_guard<std::mutex> lock(span.m);
    if (span.begin >= span.end)
        return false;
    b = span.begin;
    e = std::min(span.begin + region.grain, span.end);
    span.begin = e;
    return true;
}

bool
ThreadPool::claimSteal(Region &region, std::size_t self, std::size_t &b,
                       std::size_t &e)
{
    // Steal from the fullest victim so spans drain evenly.
    const std::size_t n = region.numSpans;
    std::size_t victim = n;
    std::size_t victimLoad = 0;
    for (std::size_t v = 0; v < n; ++v) {
        if (v == self)
            continue;
        Span &s = region.spans[v];
        std::lock_guard<std::mutex> lock(s.m);
        const std::size_t load =
            s.end > s.begin ? s.end - s.begin : 0;
        if (load > victimLoad) {
            victimLoad = load;
            victim = v;
        }
    }
    if (victim == n)
        return false;
    Span &s = region.spans[victim];
    std::lock_guard<std::mutex> lock(s.m);
    if (s.begin >= s.end)
        return false;                    // drained since we looked
    const std::size_t take = std::min(region.grain, s.end - s.begin);
    e = s.end;
    b = s.end - take;
    s.end = b;
    return true;
}

void
ThreadPool::participate(Region &region, std::size_t self)
{
    const ThreadPool *prev = currentPool;
    currentPool = this;
    std::size_t b, e;
    while (claimOwn(region, self, b, e) ||
           claimSteal(region, self, b, e)) {
        {
            std::lock_guard<std::mutex> lock(region.exceptionMutex);
            if (region.cancelled)
                break;
        }
        try {
            ScopedSpan span("pool.chunk");
            (*region.body)(b, e);
        } catch (...) {
            std::lock_guard<std::mutex> lock(region.exceptionMutex);
            if (!region.exception)
                region.exception = std::current_exception();
            region.cancelled = true;
            break;
        }
    }
    currentPool = prev;
}

void
ThreadPool::runRegion(std::size_t first, std::size_t last,
                      std::size_t grain,
                      const std::function<void(std::size_t, std::size_t)>
                          &body)
{
    // One region at a time; a second top-level submitter waits here.
    std::lock_guard<std::mutex> submitLock(submitMutex_);

    ScopedSpan span("pool.region");

    Region region;
    region.body = &body;
    region.grain = grain;
    region.spans = std::make_unique<Span[]>(threads_);
    region.numSpans = threads_;

    // Static partition into contiguous per-context spans; stealing
    // rebalances whatever the static split gets wrong.
    const std::size_t total = last - first;
    const std::size_t per = total / threads_;
    std::size_t rem = total % threads_;
    std::size_t cursor = first;
    for (std::size_t i = 0; i < threads_; ++i) {
        const std::size_t len = per + (i < rem ? 1 : 0);
        region.spans[i].begin = cursor;
        region.spans[i].end = cursor + len;
        cursor += len;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        region_ = &region;
        ++regionSeq_;
        activeWorkers_ = workers_.size();
    }
    wake_.notify_all();

    participate(region, 0);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return activeWorkers_ == 0; });
        region_ = nullptr;
    }

    if (region.exception)
        std::rethrow_exception(region.exception);
}

void
ThreadPool::workerLoop(std::size_t index)
{
    std::uint64_t seen = 0;
    for (;;) {
        Region *region = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this, seen] {
                return stop_ || regionSeq_ > seen;
            });
            if (stop_)
                return;
            seen = regionSeq_;
            region = region_;
        }
        if (region)
            participate(*region, index);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeWorkers_;
        }
        done_.notify_all();
    }
}

namespace {

std::mutex globalPoolMutex;
std::unique_ptr<ThreadPool> globalPoolInstance;
std::size_t globalPoolThreads = 1;

} // namespace

std::size_t
defaultThreads()
{
    if (const char *env = std::getenv("EVAL_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    if (!globalPoolInstance) {
        globalPoolInstance =
            std::make_unique<ThreadPool>(globalPoolThreads);
    }
    return *globalPoolInstance;
}

void
setGlobalThreads(std::size_t threads)
{
    const std::size_t n = threads > 0 ? threads : defaultThreads();
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    if (globalPoolInstance && globalPoolInstance->size() == n)
        return;
    globalPoolInstance.reset();
    globalPoolThreads = n;
}

std::size_t
globalThreads()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    return globalPoolInstance ? globalPoolInstance->size()
                              : globalPoolThreads;
}

} // namespace eval
