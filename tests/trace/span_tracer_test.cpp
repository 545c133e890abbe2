/** Tests for the span tracer's open-span stack, which logging reads,
 *  and for the span coverage of the real pipeline: every subsystem's
 *  spans land in the profile when chips run on two threads. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>

#include "cmp/cmp_system.hh"
#include "core/eval.hh"
#include "trace/span_tracer.hh"

namespace eval {
namespace {

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
