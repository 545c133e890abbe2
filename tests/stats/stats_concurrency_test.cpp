/**
 * Concurrency tests for the stats layer: counters and the decision
 * trace must tolerate updates from parallel per-chip tasks without
 * losing counts or corrupting state.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"

using namespace eval;

TEST(StatsConcurrency, CounterIncrementsAreNotLost)
{
    Counter &c = StatRegistry::global().counter("test.conc_counter");
    c.reset();
    ThreadPool pool(4);
    pool.parallelFor(0, 100000, 64, [&](std::size_t) { c.inc(); });
    EXPECT_EQ(c.value(), 100000u);
}

namespace {

/** Run @p body on @p n fresh threads (each draws a new Counter slot)
 *  and join them all. */
template <typename Body>
void
onFreshThreads(std::size_t n, Body body)
{
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t t = 0; t < n; ++t)
        threads.emplace_back([&body, t] { body(t); });
    for (std::thread &th : threads)
        th.join();
}

} // namespace

TEST(StatsConcurrency, CounterStaysExactWithMoreThreadsThanSlots)
{
    // 2x slots + 3 writers: every slot is shared by at least two
    // threads, so aliased slots must still count exactly.
    const std::size_t writers = 2 * kCounterSlots + 3;
    constexpr std::uint64_t kPerThread = 5000;
    Counter c;
    onFreshThreads(writers, [&](std::size_t t) {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
            c.inc();
        c.inc(t);
    });
    const std::uint64_t idSum = writers * (writers - 1) / 2;
    EXPECT_EQ(c.value(), writers * kPerThread + idSum);
}

TEST(StatsConcurrency, CounterReadsNeverDecreaseDuringIncrements)
{
    constexpr std::size_t kWriters = 4;
    constexpr std::uint64_t kPerThread = 200000;
    Counter c;
    std::atomic<std::size_t> running{kWriters};
    std::thread reader([&] {
        std::uint64_t last = 0;
        std::size_t decreases = 0;
        while (running.load(std::memory_order_acquire) > 0) {
            const std::uint64_t now = c.value();
            if (now < last)
                ++decreases;
            last = now;
        }
        EXPECT_EQ(decreases, 0u);
        EXPECT_LE(last, kWriters * kPerThread);
    });
    onFreshThreads(kWriters, [&](std::size_t) {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
            c.inc();
        running.fetch_sub(1, std::memory_order_release);
    });
    reader.join();
    EXPECT_EQ(c.value(), kWriters * kPerThread);
}

TEST(StatsConcurrency, CounterResetZeroesEverySlot)
{
    // kCounterSlots + 1 consecutive fresh threads cover every slot
    // (and alias one), so a reset that missed any slot would leave a
    // residue in value().
    const std::size_t writers = kCounterSlots + 1;
    Counter c;
    onFreshThreads(writers, [&](std::size_t) { c.inc(7); });
    ASSERT_EQ(c.value(), 7 * writers);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    onFreshThreads(writers, [&](std::size_t) { c.inc(); });
    EXPECT_EQ(c.value(), writers);
}

TEST(StatsConcurrency, TraceRecordsCarryPerThreadContext)
{
    DecisionTrace trace(1 << 16);
    trace.setEnabled(true);
    ThreadPool pool(4);
    pool.parallelFor(0, 64, 1, [&](std::size_t chip) {
        trace.setContext(static_cast<int>(chip), 0);
        for (int k = 0; k < 8; ++k) {
            DecisionRecord r;
            r.phaseId = static_cast<std::uint64_t>(k);
            r.outcome = "NoChange";
            trace.record(std::move(r));
        }
    });
    EXPECT_EQ(trace.totalRecorded(), 64u * 8u);
    EXPECT_EQ(trace.size(), 64u * 8u);

    // Every record must be stamped with the chip of the task that
    // produced it (thread-local context), whatever the interleaving.
    std::vector<int> perChip(64, 0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const DecisionRecord &r = trace.at(i);
        ASSERT_GE(r.chip, 0);
        ASSERT_LT(r.chip, 64);
        ++perChip[static_cast<std::size_t>(r.chip)];
    }
    for (int n : perChip)
        EXPECT_EQ(n, 8);
}

TEST(StatsConcurrency, TraceSequenceStampsAreUnique)
{
    DecisionTrace trace(4096);
    trace.setEnabled(true);
    ThreadPool pool(4);
    pool.parallelFor(0, 1000, 8, [&](std::size_t) {
        DecisionRecord r;
        r.outcome = "LowFreq";
        trace.record(std::move(r));
    });
    std::vector<bool> seen(1000, false);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint64_t seq = trace.at(i).sequence;
        ASSERT_LT(seq, 1000u);
        EXPECT_FALSE(seen[seq]);
        seen[seq] = true;
    }
}

TEST(StatsConcurrency, DisabledTraceRecordIsCheap)
{
    // Contract: record() on a disabled trace takes no lock and stores
    // nothing (one relaxed atomic load on the hot path).
    DecisionTrace trace;
    trace.setEnabled(false);
    ThreadPool pool(4);
    pool.parallelFor(0, 10000, 64, [&](std::size_t) {
        DecisionRecord r;
        trace.record(std::move(r));
    });
    EXPECT_EQ(trace.totalRecorded(), 0u);
    EXPECT_EQ(trace.size(), 0u);
}
