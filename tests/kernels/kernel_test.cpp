/**
 * Kernel-layer equivalence suite: every fast path in src/kernels/
 * must be bit-identical to the legacy expression it replaced
 * (scaleExact, upperBoundIndex, lockstep thermal solves, the SoA
 * corner-delay pass).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kernels/alpha_power.hh"
#include "kernels/path_soa.hh"
#include "kernels/pe_surface.hh"
#include "thermal/thermal_model.hh"
#include "timing/error_model.hh"
#include "timing/path_population.hh"
#include "variation/chip.hh"

namespace eval {
namespace {

struct Fixture
{
    ProcessParams params;
    ChipFactory factory{params, 77};
    Chip chip{factory.manufacture()};
};

StageErrorModel
makeModel(const Fixture &f, SubsystemId id)
{
    Rng rng = f.chip.forkRng(0x5150 +
                             static_cast<std::uint64_t>(id) * 13);
    return StageErrorModel(
        f.params, buildPathPopulation(f.chip, 0, id, {}, rng));
}

// ---------------------------------------------------------------------------
// PeSurface
// ---------------------------------------------------------------------------

TEST(PeSurface, UpperBoundIndexMatchesStdUpperBound)
{
    Fixture f;
    const StageErrorModel model = makeModel(f, SubsystemId::Icache);
    const PeSurface &s = model.surface();
    const std::vector<double> &d = s.delays();
    ASSERT_FALSE(d.empty());

    auto expected = [&d](double t) {
        return static_cast<std::size_t>(
            std::upper_bound(d.begin(), d.end(), t) - d.begin());
    };
    // Dense thresholds spanning below the fastest path to beyond the
    // slowest, plus the exact delay values themselves (tie sites the
    // bucket scan must handle identically).
    const double lo = 0.5 * d.front();
    const double hi = 1.5 * d.back();
    for (int i = 0; i <= 20000; ++i) {
        const double t = lo + (hi - lo) * i / 20000.0;
        ASSERT_EQ(s.upperBoundIndex(t), expected(t)) << "t=" << t;
    }
    for (double t : d)
        ASSERT_EQ(s.upperBoundIndex(t), expected(t)) << "t=" << t;
}

TEST(PeSurface, FirstIndexWithinBudgetMatchesLinearWalk)
{
    Fixture f;
    const StageErrorModel model = makeModel(f, SubsystemId::Decode);
    const PeSurface &s = model.surface();
    const std::size_t n = s.numPaths();

    auto walk = [&s, n](double budget) {
        // Legacy semantics: walk from the slowest path down while the
        // PE of letting one more path fail stays within budget (ties
        // keep walking).
        std::size_t i = n;
        while (i > 0 && s.level(i - 1) <= budget)
            --i;
        return i;
    };
    std::vector<double> budgets{0.0, 1e-12, 1e-8, 1e-6, 1e-4,
                                1e-2, 0.5, 1.0};
    for (std::size_t k = 0; k < n; k += n / 37 + 1) {
        budgets.push_back(s.level(k));           // exact boundary ties
        budgets.push_back(s.level(k) * (1.0 - 1e-12));
    }
    for (double b : budgets)
        EXPECT_EQ(s.firstIndexWithinBudget(b), walk(b)) << "budget=" << b;
}

TEST(PeSurface, ExactScaleBacksDelayScale)
{
    Fixture f;
    const StageErrorModel model = makeModel(f, SubsystemId::Dcache);
    // 0.3 V cannot switch: the saturated scale must map to PE 1.
    for (double vdd : {0.3, 0.8, 1.0, 1.15}) {
        const OperatingConditions op{vdd, 0.05, 90.0};
        const double scale = model.delayScale(op);
        EXPECT_EQ(scale, model.surface().scaleExact(op));
        // The scale-hoisted lookup the Freq algorithm's floor
        // prechecks use is the query's own arithmetic.
        for (double period : {1.5e-10, 2.2e-10, 2.6e-10, 4.0e-10})
            EXPECT_EQ(model.errorRateAtScale(period, scale),
                      model.errorRatePerAccess(period, op))
                << "vdd=" << vdd << " period=" << period;
    }
}

// ---------------------------------------------------------------------------
// SoA corner-delay kernel
// ---------------------------------------------------------------------------

TEST(PathSoA, CornerPathDelaysMatchScalarLoopBitwise)
{
    ProcessParams p;
    const OperatingConditions corner{p.vddNominal, 0.0, p.tempNominalC};
    const double tNom = 1.0 / p.freqNominal;
    const std::size_t n = 257;   // odd size exercises the loop tail

    std::vector<double> fraction(n), vt0(n), leff(n), got(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Deterministic spread around the nominal point.
        const double u = static_cast<double>(i) / (n - 1);
        fraction[i] = 0.3 + 0.7 * u;
        vt0[i] = p.vtMean * (0.85 + 0.3 * u);
        leff[i] = 0.9 + 0.2 * (1.0 - u);
    }
    cornerPathDelays(p, tNom, fraction.data(), vt0.data(), leff.data(),
                     got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const double want =
            fraction[i] * tNom * gateDelayFactor(p, vt0[i], leff[i], corner);
        ASSERT_EQ(got[i], want) << "i=" << i;
    }
}

// ---------------------------------------------------------------------------
// Batched thermal solves
// ---------------------------------------------------------------------------

std::vector<SubsystemThermalRequest>
makeRequests(const ProcessParams &p)
{
    std::vector<SubsystemThermalRequest> reqs;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        SubsystemThermalRequest r;
        r.id = static_cast<SubsystemId>(i);
        r.power.kdyn = 2.0e-10 * (1.0 + 0.1 * i);
        r.power.ksta = 4.0e-8 * (1.0 + 0.05 * i);
        r.vt0 = p.vtMean * (0.9 + 0.02 * i);
        r.vdd = 0.9 + 0.02 * (i % 5);
        r.vbb = -0.1 + 0.05 * (i % 4);
        r.freqHz = p.freqNominal * (0.8 + 0.03 * i);
        r.alphaF = 0.2 + 0.05 * (i % 3);
        reqs.push_back(r);
    }
    return reqs;
}

TEST(ThermalBatch, LockstepBatchMatchesScalarBitwise)
{
    ProcessParams p;
    ThermalModel model(p);
    const auto reqs = makeRequests(p);
    const double thC = 55.0;

    std::vector<SubsystemThermalState> batch(reqs.size());
    model.solveMany(reqs.data(), batch.data(), reqs.size(), thC);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto &r = reqs[i];
        const SubsystemThermalState one = model.solveSubsystem(
            r.power, r.id, r.vt0, r.vdd, r.vbb, r.freqHz, r.alphaF, thC);
        ASSERT_EQ(batch[i].tempC, one.tempC) << "i=" << i;
        ASSERT_EQ(batch[i].pdyn, one.pdyn) << "i=" << i;
        ASSERT_EQ(batch[i].psta, one.psta) << "i=" << i;
        ASSERT_EQ(batch[i].vtEff, one.vtEff) << "i=" << i;
        ASSERT_EQ(batch[i].runaway, one.runaway) << "i=" << i;
    }
}

} // namespace
} // namespace eval
