/** Tests for the workload-characterization cache. */

#include <gtest/gtest.h>

#include <string>

#include "core/characterization.hh"
#include "trace/span_tracer.hh"

namespace eval {
namespace {

struct Fixture
{
    RecoveryModel recovery;
    CharacterizationCache cache{recovery, 4e9, 123, 150000};
};

TEST(Characterization, PhasesMatchProfileScript)
{
    Fixture f;
    EXPECT_EQ(f.cache.get(appByName("gcc")).phases.size(), 3u);
    EXPECT_EQ(f.cache.get(appByName("crafty")).phases.size(), 1u);
    EXPECT_EQ(f.cache.get(appByName("gzip")).phases.size(), 2u);
}

TEST(Characterization, CachedObjectIsStable)
{
    Fixture f;
    const AppCharacterization &a = f.cache.get(appByName("swim"));
    const AppCharacterization &b = f.cache.get(appByName("swim"));
    EXPECT_EQ(&a, &b);
}

TEST(Characterization, WeightsSumToOne)
{
    Fixture f;
    const auto &chr = f.cache.get(appByName("gcc"));
    EXPECT_NEAR(chr.totalWeight(), 1.0, 1e-9);
}

TEST(Characterization, SmallQueueCostsIpc)
{
    Fixture f;
    const auto &chr = f.cache.get(appByName("crafty"));
    for (const auto &phase : chr.phases) {
        // The 3/4 queue extracts no more ILP than the full queue.
        EXPECT_GE(phase.chr.perfSmall.cpiComp,
                  phase.chr.perfFull.cpiComp * 0.99);
    }
}

TEST(Characterization, FpFlagPropagates)
{
    Fixture f;
    EXPECT_TRUE(f.cache.get(appByName("swim")).isFp);
    EXPECT_FALSE(f.cache.get(appByName("gzip")).isFp);
    EXPECT_TRUE(f.cache.get(appByName("swim")).phases[0].chr.isFp);
}

TEST(Characterization, ActivityConsistentWithType)
{
    Fixture f;
    const auto &fp = f.cache.get(appByName("swim")).phases[0].chr.act;
    const auto &nt = f.cache.get(appByName("gzip")).phases[0].chr.act;
    EXPECT_GT(fp.alphaOf(SubsystemId::FPUnit), 0.0);
    EXPECT_DOUBLE_EQ(nt.alphaOf(SubsystemId::FPUnit), 0.0);
    EXPECT_GT(nt.alphaOf(SubsystemId::IntALU),
              fp.alphaOf(SubsystemId::IntALU));
}

TEST(Characterization, PhasesDiffer)
{
    Fixture f;
    const auto &chr = f.cache.get(appByName("gcc"));
    // The memory-heavy phase (index 1) must show a higher miss rate.
    EXPECT_GT(chr.phases[1].chr.perfFull.missesPerInst,
              chr.phases[2].chr.perfFull.missesPerInst);
}

TEST(Characterization, SpanProfileCountsEveryCoreRun)
{
    // Characterization is the largest cold-start layer, so the span
    // profile must see it: one characterize.app span per app, and
    // under it one arch.core_run per Core::run — two queue
    // configurations x (warm, measure) per phase.
    SpanTracer &tracer = SpanTracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    RecoveryModel recovery;
    CharacterizationCache cache{recovery, 4e9, 123, 2000};
    const std::size_t phases = cache.get(appByName("gzip")).phases.size();
    tracer.setEnabled(false);

    std::uint64_t apps = 0;
    std::uint64_t coreRuns = 0;
    for (const ProfileBucket &b : tracer.snapshotProfile()) {
        if (b.path == "characterize.app")
            apps = b.count;
        else if (b.path == "characterize.app;arch.core_run")
            coreRuns = b.count;
    }
    tracer.clear();
    EXPECT_EQ(phases, 2u);
    EXPECT_EQ(apps, 1u);
    EXPECT_EQ(coreRuns, 4u * phases);
}

} // namespace
} // namespace eval
