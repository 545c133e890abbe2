/**
 * Regression test for the determinism contract of the parallel
 * execution layer: the same experiment run serially and with a
 * 4-thread pool must produce bit-identical metrics (Rng::split chip
 * streams + per-slot writes + serial-order accumulation).
 */

#include <vector>

#include <gtest/gtest.h>

#include "cmp/cmp_system.hh"
#include "core/eval.hh"
#include "exec/thread_pool.hh"

using namespace eval;

namespace {

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.seed = 42;
    cfg.chips = 3;
    cfg.simInsts = 20000;
    return cfg;
}

/** The eval_paper cmp inner loop: per-chip CMP runs fanned out on
 *  the global pool, accumulated in chip order. */
std::vector<CmpRunResult>
runMixOverChips(std::size_t threads)
{
    setGlobalThreads(threads);
    ExperimentContext ctx(smallConfig());
    const WorkloadMix mix = mixedMix();
    auto perChip = globalPool().parallelMap(
        static_cast<std::size_t>(ctx.config().chips),
        [&ctx, &mix](std::size_t chip) {
            CmpSystem cmp(ctx, chip);
            return cmp.runMix(mix, EnvironmentKind::TS_ASV,
                              AdaptScheme::ExhDyn);
        });
    setGlobalThreads(1);
    return perChip;
}

} // namespace

TEST(ParallelDeterminism, ChipPopulationIdenticalAcrossThreads)
{
    ProcessParams params;
    ChipFactory serialFactory(params, 7);
    setGlobalThreads(1);
    const std::vector<Chip> serial = serialFactory.manufacture(8);

    ChipFactory parallelFactory(params, 7);
    setGlobalThreads(4);
    const std::vector<Chip> parallel = parallelFactory.manufacture(8);
    setGlobalThreads(1);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
        EXPECT_EQ(serial[c].id(), parallel[c].id());
        for (std::size_t core = 0; core < 4; ++core) {
            for (std::size_t s = 0; s < kNumSubsystems; ++s) {
                const auto id = static_cast<SubsystemId>(s);
                EXPECT_EQ(serial[c].subsystemVtSys(core, id),
                          parallel[c].subsystemVtSys(core, id))
                    << "chip " << c << " core " << core << " sub " << s;
                EXPECT_EQ(serial[c].subsystemLeffSys(core, id),
                          parallel[c].subsystemLeffSys(core, id));
            }
        }
    }
}

TEST(ParallelDeterminism, CmpMixMetricsIdenticalAcrossThreads)
{
    const std::vector<CmpRunResult> serial = runMixOverChips(1);
    const std::vector<CmpRunResult> parallel = runMixOverChips(4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
        EXPECT_EQ(serial[c].throughputRel, parallel[c].throughputRel)
            << "chip " << c;
        EXPECT_EQ(serial[c].chipPowerW, parallel[c].chipPowerW);
        EXPECT_EQ(serial[c].heatsinkC, parallel[c].heatsinkC);
        EXPECT_EQ(serial[c].throttleSteps, parallel[c].throttleSteps);
        for (std::size_t core = 0; core < 4; ++core) {
            EXPECT_EQ(serial[c].coreFreqRel[core],
                      parallel[c].coreFreqRel[core]);
            EXPECT_EQ(serial[c].corePerfRel[core],
                      parallel[c].corePerfRel[core]);
            EXPECT_EQ(serial[c].corePowerW[core],
                      parallel[c].corePowerW[core]);
        }
    }
}

TEST(ParallelDeterminism, RngSplitMatchesForkWithoutAdvancing)
{
    Rng parent(123);
    Rng split1 = parent.split(9);
    Rng fork1 = parent.fork(9);
    // split == fork for the same label, and neither advances the
    // parent, so repeated splits agree.
    Rng split2 = parent.split(9);
    for (int i = 0; i < 64; ++i) {
        const double a = split1.uniform();
        const double b = fork1.uniform();
        const double c = split2.uniform();
        EXPECT_EQ(a, b);
        EXPECT_EQ(a, c);
    }
}

TEST(ParallelDeterminism, RngSplitStreamsAreDecorrelated)
{
    Rng parent(2026);
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    double corr = 0.0;
    const int n = 4096;
    for (int i = 0; i < n; ++i)
        corr += (a.uniform() - 0.5) * (b.uniform() - 0.5);
    corr /= n * (1.0 / 12.0);   // normalize by uniform variance
    EXPECT_LT(std::abs(corr), 0.1);
}
