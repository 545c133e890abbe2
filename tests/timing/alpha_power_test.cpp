/** Tests for the alpha-power delay model and Eq 9 Vt modulation. */

#include <gtest/gtest.h>

#include "kernels/alpha_power.hh"

namespace eval {
namespace {

ProcessParams
params()
{
    return ProcessParams{};
}

TEST(EffectiveVt, NominalConditions)
{
    const ProcessParams p = params();
    const OperatingConditions corner = OperatingConditions::nominal(p);
    const double vt = effectiveVt(p, p.vtMean, corner);
    // At the design corner only the temperature term is active.
    EXPECT_NEAR(vt,
                p.vtMean + p.k1 * (p.tempNominalC - p.vtRefTempC), 1e-12);
}

TEST(EffectiveVt, ForwardBodyBiasLowersVt)
{
    const ProcessParams p = params();
    OperatingConditions op = OperatingConditions::nominal(p);
    const double base = effectiveVt(p, p.vtMean, op);
    op.vbb = 0.5;   // FBB
    EXPECT_LT(effectiveVt(p, p.vtMean, op), base);
    op.vbb = -0.5;  // RBB
    EXPECT_GT(effectiveVt(p, p.vtMean, op), base);
}

TEST(EffectiveVt, HigherVddLowersVtViaDibl)
{
    const ProcessParams p = params();
    OperatingConditions op = OperatingConditions::nominal(p);
    const double base = effectiveVt(p, p.vtMean, op);
    op.vdd = 1.2;
    EXPECT_LT(effectiveVt(p, p.vtMean, op), base);
}

TEST(GateDelay, UnityAtCorner)
{
    const ProcessParams p = params();
    const OperatingConditions corner = OperatingConditions::nominal(p);
    EXPECT_NEAR(gateDelayFactor(p, p.vtMean, p.leffMean, corner), 1.0,
                1e-12);
}

TEST(GateDelay, HigherVtIsSlower)
{
    const ProcessParams p = params();
    const OperatingConditions corner = OperatingConditions::nominal(p);
    EXPECT_GT(gateDelayFactor(p, p.vtMean + 0.02, p.leffMean, corner),
              1.0);
    EXPECT_LT(gateDelayFactor(p, p.vtMean - 0.02, p.leffMean, corner),
              1.0);
}

TEST(GateDelay, LongerChannelIsSlower)
{
    const ProcessParams p = params();
    const OperatingConditions corner = OperatingConditions::nominal(p);
    EXPECT_GT(gateDelayFactor(p, p.vtMean, 1.05, corner), 1.0);
    EXPECT_LT(gateDelayFactor(p, p.vtMean, 0.95, corner), 1.0);
}

TEST(GateDelay, HigherVddIsFaster)
{
    const ProcessParams p = params();
    OperatingConditions op = OperatingConditions::nominal(p);
    op.vdd = 1.2;
    EXPECT_LT(gateDelayFactor(p, p.vtMean, p.leffMean, op), 1.0);
    op.vdd = 0.8;
    EXPECT_GT(gateDelayFactor(p, p.vtMean, p.leffMean, op), 1.0);
}

TEST(GateDelay, HotterIsSlower)
{
    const ProcessParams p = params();
    OperatingConditions op = OperatingConditions::nominal(p);
    op.tempC = 55.0;   // cooler than the 85C corner
    EXPECT_LT(gateDelayFactor(p, p.vtMean, p.leffMean, op), 1.0);
    op.tempC = 100.0;
    EXPECT_GT(gateDelayFactor(p, p.vtMean, p.leffMean, op), 1.0);
}

TEST(GateDelay, ForwardBiasIsFaster)
{
    const ProcessParams p = params();
    OperatingConditions op = OperatingConditions::nominal(p);
    op.vbb = 0.5;
    EXPECT_LT(gateDelayFactor(p, p.vtMean, p.leffMean, op), 1.0);
}

TEST(GateDelay, NonFunctionalWhenVddBelowVt)
{
    ProcessParams p = params();
    OperatingConditions op = OperatingConditions::nominal(p);
    op.vdd = 0.10;   // below threshold
    EXPECT_GE(gateDelayFactor(p, p.vtMean, p.leffMean, op),
              kNonFunctionalDelayFactor);
}

TEST(GateDelay, VariationGainAmplifiesDeviationOnly)
{
    ProcessParams weak = params();
    weak.delayVariationGain = 1.0;
    ProcessParams strong = params();
    strong.delayVariationGain = 3.0;
    const OperatingConditions corner =
        OperatingConditions::nominal(weak);

    // Nominal device: gain must not matter.
    EXPECT_NEAR(gateDelayFactor(strong, strong.vtMean, 1.0, corner),
                gateDelayFactor(weak, weak.vtMean, 1.0, corner), 1e-12);

    // Deviant device: stronger gain, stronger slowdown.
    const double dWeak =
        gateDelayFactor(weak, weak.vtMean + 0.01, 1.0, corner);
    const double dStrong =
        gateDelayFactor(strong, strong.vtMean + 0.01, 1.0, corner);
    EXPECT_GT(dStrong, dWeak);
}

/** Property sweep: delay decreases monotonically with Vdd. */
class VddSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(VddSweep, MonotoneInVdd)
{
    const ProcessParams p = params();
    const double vt0 = GetParam();
    double prev = 1e12;
    for (double vdd = 0.80; vdd <= 1.21; vdd += 0.05) {
        OperatingConditions op{vdd, 0.0, 70.0};
        const double d = gateDelayFactor(p, vt0, 1.0, op);
        EXPECT_LT(d, prev) << "vdd " << vdd;
        prev = d;
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, VddSweep,
                         ::testing::Values(0.12, 0.15, 0.18, 0.21));

} // namespace
} // namespace eval
