/**
 * @file
 * Simulator-wide statistics registry in the spirit of gem5's Stats
 * framework: named Counter / Gauge / Histogram instruments,
 * registered under dotted hierarchical names
 * ("core0.controller.retunes", "chip.thermal.throttle_steps"),
 * snapshotable mid-run and dumpable as nested JSON or flat CSV.
 *
 * Conventions:
 *  - Registration is idempotent: asking for an existing name of the
 *    same type returns the same instrument; a type clash or a
 *    group/leaf clash ("a.b" vs "a.b.c") is a fatal error.
 *  - Instruments are never deallocated while the registry lives, so
 *    hot paths may cache references (typically as function-local
 *    statics).  reset() zeroes values but keeps registrations.
 *  - Every instrument is safe to update from concurrent parallelFor
 *    bodies: a Counter increment is one relaxed RMW on the calling
 *    thread's own cache line (see Counter), a Gauge is one relaxed
 *    store, and a Histogram sample takes a per-instrument mutex.
 *    Registration itself is mutex-protected.
 *  - The registry holds no clocks: region timing is the span
 *    tracer's job (src/trace, ScopedSpan and its profile).
 */

#pragma once

// eval-lint: counters-only instruments are monotone relaxed counters and
// gauges read only at snapshot/dump time, off the model path.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "util/statistics.hh"

namespace eval {

/** Kind tag of one registered instrument. */
enum class StatType { Counter, Gauge, Histogram };

const char *statTypeName(StatType t);

/** Per-thread slots in every Counter.  Threads beyond this many share
 *  slots: totals stay exact, only the sharers contend again. */
constexpr std::size_t kCounterSlots = 16;

/**
 * Monotonic event counter, built for hot loops on every pool thread.
 *
 * Each thread increments its own cache-line-padded slot, so an inc()
 * is one relaxed RMW on a line no other thread writes (until more than
 * kCounterSlots threads alias onto shared slots, which stays exact).
 * value() sums the slots.  The sum is exact once the writers have
 * joined.  A read that races with inc() sees some of the in-flight
 * increments, and successive reads by one thread never decrease.
 * reset() zeroes every slot; it is meant for quiescent counters.
 */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        slots_[threadSlot()].n.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t
    value() const
    {
        std::uint64_t sum = 0;
        for (const Slot &s : slots_)
            sum += s.n.load(std::memory_order_relaxed);
        return sum;
    }
    void
    reset()
    {
        for (Slot &s : slots_)
            s.n.store(0, std::memory_order_relaxed);
    }

  private:
    /** One slot per 64-byte cache line. */
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> n{0};
    };

    /** The calling thread's slot, shared by every Counter: a
     *  process-wide thread sequence number modulo kCounterSlots,
     *  drawn on the thread's first increment. */
    static std::size_t
    threadSlot()
    {
        static std::atomic<std::size_t> nextThread{0};
        thread_local const std::size_t slot =
            nextThread.fetch_add(1, std::memory_order_relaxed) %
            kCounterSlots;
        return slot;
    }

    std::array<Slot, kCounterSlots> slots_;
};

/** Last-value instrument (temperatures, table sizes, ...).  Atomic
 *  store/load; concurrent setters race benignly (last writer wins). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Binned distribution plus streaming moments: the fixed-bin histogram
 * answers quantile queries while RunningStats keeps exact
 * mean/min/max (the bins clamp out-of-range samples).
 */
class HistogramStat
{
  public:
    HistogramStat(double lo, double hi, std::size_t bins)
        : lo_(lo), hi_(hi), nbins_(bins), hist_(lo, hi, bins)
    {
    }

    void
    add(double x)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hist_.add(x);
        moments_.add(x);
    }

    std::size_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return moments_.count();
    }
    double
    mean() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return moments_.mean();
    }
    double
    stddev() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return moments_.stddev();
    }
    double
    min() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return moments_.min();
    }
    double
    max() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return moments_.max();
    }
    double
    quantile(double q) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_.quantile(q);
    }
    /** Snapshot of the bins (by value: the live bins may be written
     *  concurrently). */
    Histogram
    bins() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_;
    }

    void reset();

  private:
    mutable std::mutex mutex_;
    double lo_;
    double hi_;
    std::size_t nbins_;
    Histogram hist_;
    RunningStats moments_;
};

/**
 * The hierarchical instrument registry.  Most code uses the process
 * singleton (global()); tests may build private instances.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** The simulator-wide registry. */
    static StatRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    HistogramStat &histogram(const std::string &name, double lo,
                             double hi, std::size_t bins);

    /** Whether @p name is registered (any type). */
    bool has(const std::string &name) const;

    std::size_t size() const;

    /** Zero every instrument, keeping registrations (and therefore
     *  any cached references) valid. */
    void reset();

    /** Nested-JSON snapshot of every instrument, grouped by the
     *  dotted-name hierarchy. */
    std::string json() const;

    /** Flat CSV snapshot:
     *  name,type,count,value,mean,min,max,p50,p90,p95,p99. */
    std::string csv() const;

    bool writeJson(const std::string &path) const;
    bool writeCsv(const std::string &path) const;

  private:
    using Slot =
        std::variant<Counter, Gauge, HistogramStat>;

    /** Find-or-create @p name; fatal on type or hierarchy clash. */
    Slot &slot(const std::string &name, StatType type,
               double lo = 0.0, double hi = 1.0, std::size_t bins = 1);

    mutable std::mutex mutex_;
    /** Ordered so dumps group hierarchy prefixes together. */
    std::map<std::string, std::unique_ptr<Slot>> stats_;
};

} // namespace eval

