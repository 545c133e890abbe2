/** Tests for the span tracer's open-span stack, which logging reads,
 *  for the span coverage of the real pipeline (every subsystem's spans
 *  land in the profile when chips run on two threads), and for the
 *  compile-time guarantee that a span stays a stack local. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "cmp/cmp_system.hh"
#include "core/eval.hh"
#include "trace/span_tracer.hh"

namespace eval {
namespace {

// A ScopedSpan is its scope: it cannot be heap-allocated, and nothing
// outside the type can open or close a span by hand.
template <typename T>
concept HeapAllocatable = requires { new T("x"); };

template <typename T>
concept RawSpanOpenable = requires { T::beginSpanImpl("x"); };

/** Control: the same expressions compile for a type that allows them,
 *  so the negative checks below cannot pass vacuously. */
struct OpenSpanLike
{
    explicit OpenSpanLike(const char *) {}
    static std::uint64_t beginSpanImpl(const char *) { return 0; }
};

static_assert(HeapAllocatable<OpenSpanLike>);
static_assert(RawSpanOpenable<OpenSpanLike>);
static_assert(!HeapAllocatable<ScopedSpan>);
static_assert(!RawSpanOpenable<ScopedSpan>);

/** Reset the global tracer around every test. */
class SpanTracerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SpanTracer &tracer = SpanTracer::global();
        tracer.setEnabled(false);
        tracer.clear();
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

TEST_F(SpanTracerTest, CurrentSpanNameTracksTheOpenStack)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    EXPECT_STREQ(SpanTracer::currentSpanName(), "");
    {
        ScopedSpan outer("test.outer");
        EXPECT_STREQ(SpanTracer::currentSpanName(), "test.outer");
        {
            ScopedSpan inner("test.inner");
            EXPECT_STREQ(SpanTracer::currentSpanName(), "test.inner");
        }
        EXPECT_STREQ(SpanTracer::currentSpanName(), "test.outer");
    }
    EXPECT_STREQ(SpanTracer::currentSpanName(), "");
}

TEST_F(SpanTracerTest, RealPipelineSpansCoverSubsystemsAcrossThreads)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);

    // A tiny but real experiment: two chips' CMP mixes, one per
    // explicit thread (the host may be single-core, so the pool's
    // own workers cannot be relied on to take work).
    ExperimentConfig cfg;
    cfg.seed = 42;
    cfg.chips = 2;
    cfg.simInsts = 10000;
    ExperimentContext ctx(cfg);
    const WorkloadMix mix = mixedMix();
    auto runChip = [&ctx, &mix](std::size_t chip) {
        CmpSystem cmp(ctx, chip);
        cmp.runMix(mix, EnvironmentKind::TS_ASV, AdaptScheme::ExhDyn);
    };
    std::thread a(runChip, 0);
    std::thread b(runChip, 1);
    a.join();
    b.join();
    tracer.setEnabled(false);

    // Counts per leaf name, and per subsystem prefix for optimizer.*.
    std::map<std::string, std::uint64_t> counts;
    for (const ProfileBucket &bucket : tracer.snapshotProfile()) {
        counts[bucket.name] += bucket.count;
        counts[bucket.name.substr(0, bucket.name.find('.')) + ".*"] +=
            bucket.count;
    }
    for (const char *name : {"characterize.app", "arch.core_run",
                             "optimizer.*", "controller.adapt_phase"})
        EXPECT_GT(counts[name], 0u) << name;
}

} // namespace
} // namespace eval
