/**
 * Differential determinism suite: the same experiment must produce
 * bit-identical metrics whether it runs serially or on 2/4/8 threads.
 * Three experiments cover the layers where parallelism lives: chip
 * manufacture (Rng::split fan-out), the optimizer, and the end-to-end
 * managed sweep (per-chip parallelMap + lazy shared caches).
 */

#include <gtest/gtest.h>

#include "valid/differential.hh"

using namespace eval;

namespace {

void
expectDeterministic(const std::string &experiment)
{
    const DifferentialReport report = runDifferential(experiment);
    EXPECT_TRUE(report.allIdentical()) << report.summary();
    // One check per thread count.
    EXPECT_EQ(report.checks.size(), 3u);
}

} // namespace

TEST(Differential, ChipPopulation)
{
    expectDeterministic("chip_population");
}

TEST(Differential, OptimizerDecisions)
{
    expectDeterministic("optimizer_decisions");
}

TEST(Differential, SweepMicro) { expectDeterministic("sweep_micro"); }

/**
 * Fuzzy-vs-exhaustive bounded-gap contract: the fuzzy controllers
 * approximate the exhaustive optimizer, so under the preferred
 * environment their mean relative frequency must stay within a
 * bounded gap (EXPERIMENTS.md documents the full-scale gap; the
 * micro config is noisier, hence the margin).
 */
TEST(Differential, FuzzyTracksExhaustive)
{
    const GoldenFile run = runValidationExperiment("sweep_micro");
    const GoldenMetric *fuzzy = run.find("pref_fuzzy_freq_rel");
    const GoldenMetric *exh = run.find("pref_exh_freq_rel");
    ASSERT_NE(fuzzy, nullptr);
    ASSERT_NE(exh, nullptr);
    EXPECT_NEAR(fuzzy->value, exh->value, 0.12)
        << "fuzzy controller drifted away from the exhaustive optimizer";
}
