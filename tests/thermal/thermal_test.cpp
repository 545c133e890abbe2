/** Tests for the Eq 6-9 electro-thermal solver and the heat sink. */

#include <cmath>

#include <gtest/gtest.h>

#include "power/power_model.hh"
#include "thermal/thermal_model.hh"

namespace eval {
namespace {

struct Fixture
{
    ProcessParams params;
    std::array<SubsystemPowerParams, kNumSubsystems> power{
        calibratePower(params, PowerCalibration{})};
    ThermalModel thermal{params};
};

TEST(ThermalModel, SmallBlocksHaveHigherRth)
{
    Fixture f;
    EXPECT_GT(f.thermal.rth(SubsystemId::IntALU),
              f.thermal.rth(SubsystemId::Dcache));
    EXPECT_GT(f.thermal.rth(SubsystemId::DTLB),
              f.thermal.rth(SubsystemId::Icache));
}

TEST(ThermalModel, SubsystemAboveHeatsink)
{
    Fixture f;
    const auto st = f.thermal.solveSubsystem(
        f.power[static_cast<std::size_t>(SubsystemId::IntALU)],
        SubsystemId::IntALU, f.params.vtMean, 1.0, 0.0, 4e9, 0.6, 65.0);
    EXPECT_GT(st.tempC, 65.0);
    EXPECT_LT(st.tempC, 95.0);
    EXPECT_FALSE(st.runaway);
    EXPECT_GT(st.pdyn, 0.0);
    EXPECT_GT(st.psta, 0.0);
}

TEST(ThermalModel, SatisfiesEq6AtFixedPoint)
{
    Fixture f;
    const SubsystemId id = SubsystemId::IntQ;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto st = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 1.1,
                                             0.0, 4.5e9, 0.8, 68.0);
    EXPECT_NEAR(st.tempC, 68.0 + f.thermal.rth(id) * (st.pdyn + st.psta),
                0.05);
}

TEST(ThermalModel, HigherVddRunsHotter)
{
    Fixture f;
    const SubsystemId id = SubsystemId::FPUnit;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto lo = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 0.9,
                                             0.0, 4e9, 0.5, 65.0);
    const auto hi = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 1.2,
                                             0.0, 4e9, 0.5, 65.0);
    EXPECT_GT(hi.tempC, lo.tempC);
    EXPECT_GT(hi.pdyn, lo.pdyn);
    EXPECT_GT(hi.psta, lo.psta);
}

TEST(ThermalModel, ForwardBiasLeaksMore)
{
    Fixture f;
    const SubsystemId id = SubsystemId::IntReg;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto noBias = f.thermal.solveSubsystem(
        pp, id, f.params.vtMean, 1.0, 0.0, 4e9, 0.5, 65.0);
    const auto fbb = f.thermal.solveSubsystem(
        pp, id, f.params.vtMean, 1.0, 0.4, 4e9, 0.5, 65.0);
    EXPECT_GT(fbb.psta, noBias.psta);
    // And reverse bias saves leakage.
    const auto rbb = f.thermal.solveSubsystem(
        pp, id, f.params.vtMean, 1.0, -0.4, 4e9, 0.5, 65.0);
    EXPECT_LT(rbb.psta, noBias.psta);
}

TEST(ThermalModel, LeakageFeedbackRaisesTemperature)
{
    Fixture f;
    const SubsystemId id = SubsystemId::IntALU;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto st = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 1.0,
                                             0.0, 4e9, 0.6, 65.0);
    // Temperature must exceed the leakage-free estimate.
    EXPECT_GT(st.tempC, 65.0 + f.thermal.rth(id) * st.pdyn);
}

TEST(Heatsink, TracksChipPower)
{
    HeatsinkModel hs;
    EXPECT_NEAR(hs.tempC(0.0), hs.ambientC, 1e-12);
    EXPECT_NEAR(hs.tempC(120.0), hs.ambientC + 30.0, 1e-12);
    // The paper's TH_MAX=70C corresponds to ~PMAX on all four cores.
    EXPECT_LE(hs.tempC(4 * 30.0), 70.0 + 1e-9);
}

/** Property: solver converges over the whole knob space. */
class SolverSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(SolverSweep, ProducesFiniteState)
{
    Fixture f;
    const auto [vdd, vbb] = GetParam();
    // Maximum supply plus strong forward bias can genuinely run away
    // thermally; the solver must then *report* runaway, never produce
    // non-finite state.
    const bool mayRunAway = vbb > 0.25 && vdd > 1.1;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const auto st = f.thermal.solveSubsystem(
            f.power[i], id, f.params.vtMean, vdd, vbb, 4e9,
            f.power[i].alphaRef, 70.0);
        EXPECT_TRUE(std::isfinite(st.tempC)) << "subsystem " << i;
        EXPECT_TRUE(std::isfinite(st.psta)) << "subsystem " << i;
        if (!mayRunAway) {
            EXPECT_FALSE(st.runaway) << "subsystem " << i;
            EXPECT_GT(st.tempC, 60.0);
            EXPECT_LT(st.tempC, 130.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, SolverSweep,
    ::testing::Combine(::testing::Values(0.8, 1.0, 1.2),
                       ::testing::Values(-0.5, 0.0, 0.5)));

} // namespace
} // namespace eval
