/**
 * @file
 * Simulator-wide statistics registry in the spirit of gem5's Stats
 * framework: exact event Counters registered under dotted
 * hierarchical names ("core0.controller.retunes",
 * "chip.thermal.throttle_steps"), snapshotable mid-run and dumpable
 * as nested JSON.
 *
 * Conventions:
 *  - Registration is idempotent: asking for an existing name returns
 *    the same counter; a group/leaf clash ("a.b" vs "a.b.c") is a
 *    fatal error.
 *  - Counters are never deallocated while the registry lives, so hot
 *    paths may cache references (typically as function-local
 *    statics).  reset() zeroes values but keeps registrations.
 *  - Every counter is safe to update from concurrent parallelFor
 *    bodies: an increment is one relaxed RMW on the calling thread's
 *    own cache line (see Counter).  Registration itself is
 *    mutex-protected.
 *  - The registry holds no clocks: region timing is the span
 *    tracer's job (src/trace, ScopedSpan and its profile).
 */

#pragma once

// eval-lint: counters-only instruments are monotone relaxed counters read
// only at snapshot/dump time, off the model path.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace eval {

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

/**
 * The hierarchical counter registry.  Most code uses the process
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

    /** Find-or-create @p name; fatal on a hierarchy clash. */
    Counter &counter(const std::string &name);

    /** Whether @p name is registered. */
    bool has(const std::string &name) const;

    std::size_t size() const;

    /** Zero every counter, keeping registrations (and therefore any
     *  cached references) valid. */
    void reset();

    /** Nested-JSON snapshot of every counter, grouped by the
     *  dotted-name hierarchy. */
    std::string json() const;

    bool writeJson(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    /** Ordered so dumps group hierarchy prefixes together. */
    std::map<std::string, std::unique_ptr<Counter>> stats_;
};

} // namespace eval

