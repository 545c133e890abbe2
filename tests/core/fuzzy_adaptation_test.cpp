/** Tests for the per-chip fuzzy controller system (Sec 4.3.1). */

#include <gtest/gtest.h>

#include "core/environment.hh"
#include "util/statistics.hh"

namespace eval {
namespace {

class FuzzyAdaptationTest : public ::testing::Test
{
  protected:
    static ExperimentContext &
    ctx()
    {
        static ExperimentConfig cfg = [] {
            ExperimentConfig c;
            c.chips = 2;
            c.simInsts = 50000;
            return c;
        }();
        static ExperimentContext context(cfg);
        return context;
    }
};

TEST_F(FuzzyAdaptationTest, TrainsAndPredictsWithinGrid)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    const CoreFuzzySystem &fc = ctx().coreFuzzy(0, 0, caps);
    EXPECT_TRUE(fc.trained());

    const KnobSpace ks = caps.knobSpace();
    FuzzyOptimizer opt(fc);
    CoreSystemModel &core = ctx().coreModel(0, 0);
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const double f = opt.maxFrequency(
            core, id, false, core.subsystem(id).power().alphaRef, 65.0);
        EXPECT_GE(f, ks.freq.lo());
        EXPECT_LE(f, ks.freq.hi());
    }
}

TEST_F(FuzzyAdaptationTest, PredictionsTrackExhaustive)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    const CoreFuzzySystem &fc = ctx().coreFuzzy(0, 1, caps);
    CoreSystemModel &core = ctx().coreModel(0, 1);
    ExhaustiveOptimizer exh(caps, ctx().config().constraints);

    Rng rng(5);
    RunningStats relErr;
    for (int k = 0; k < 40; ++k) {
        const auto id = static_cast<SubsystemId>(
            rng.uniformInt(kNumSubsystems));
        const double th = rng.uniform(48.0, 70.0);
        const double a = core.subsystem(id).power().alphaRef *
                         rng.uniform(0.3, 1.8);
        const double fe = exh.maxFrequency(core, id, false, a, th);
        const double ff = fc.predictFmax(id, th, a, false);
        if (fe > 0.0)
            relErr.add(std::abs(ff - fe) / fe);
    }
    // Paper Table 2 reports ~4%; allow slack for smaller training sets.
    EXPECT_LT(relErr.mean(), 0.06);
}

TEST_F(FuzzyAdaptationTest, VddPredictionsQuantizedAndBounded)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    FuzzyOptimizer opt(ctx().coreFuzzy(1, 0, caps));
    CoreSystemModel &core = ctx().coreModel(1, 0);
    const KnobSpace ks = caps.knobSpace();

    for (double fcore : {2.5e9, 3.2e9, 4.0e9}) {
        const auto k = opt.minimizePower(core, SubsystemId::Dcache, false,
                                         fcore, 0.3, 65.0);
        ASSERT_TRUE(k.has_value());
        EXPECT_GE(k->vdd, ks.vdd.lo());
        EXPECT_LE(k->vdd, ks.vdd.hi());
        EXPECT_NEAR(k->vdd, ks.vdd.quantize(k->vdd), 1e-12);
        EXPECT_DOUBLE_EQ(k->vbb, 0.0);   // no ABB in this environment
    }
}

TEST_F(FuzzyAdaptationTest, AbbEnvironmentProducesBiases)
{
    const EnvCapabilities caps =
        environmentCaps(EnvironmentKind::TS_ASV_ABB);
    FuzzyOptimizer opt(ctx().coreFuzzy(1, 1, caps));
    CoreSystemModel &core = ctx().coreModel(1, 1);
    const KnobSpace ks = caps.knobSpace();
    const auto k = opt.minimizePower(core, SubsystemId::IntQ, false,
                                     3.0e9, 0.5, 65.0);
    ASSERT_TRUE(k.has_value());
    EXPECT_GE(k->vbb, ks.vbb.lo());
    EXPECT_LE(k->vbb, ks.vbb.hi());
}

TEST_F(FuzzyAdaptationTest, HigherActivityLowersPredictedFmax)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    const CoreFuzzySystem &fc = ctx().coreFuzzy(0, 0, caps);
    // Hotter (more active) subsystems can sustain less frequency; the
    // controller must have learned the trend.
    const SubsystemId id = SubsystemId::IntALU;
    const double lo = fc.predictFmax(id, 65.0, 0.2, false);
    const double hi = fc.predictFmax(id, 65.0, 1.1, false);
    EXPECT_GE(lo, hi * 0.98);
}

} // namespace
} // namespace eval
