/** Tests for the Freq/Power algorithms and the whole-core optimizer. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/environment.hh"
#include "core/optimizer.hh"
#include "stats/stat_registry.hh"

namespace eval {
namespace {

struct Fixture
{
    ExperimentConfig cfg;
    std::unique_ptr<ExperimentContext> ctx;

    Fixture()
    {
        cfg.chips = 2;
        ctx = std::make_unique<ExperimentContext>(cfg);
    }

    CoreSystemModel &core() { return ctx->coreModel(0, 0); }

    PhaseCharacterization
    phase(const std::string &app)
    {
        return ctx->characterizations()
            .get(appByName(app))
            .phases[0]
            .chr;
    }
};

TEST(Exhaustive, FmaxWithinKnobGrid)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    const KnobSpace ks = caps.knobSpace();
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const double fmax = exh.maxFrequency(f.core(), id, false, 0.4,
                                             65.0);
        EXPECT_GE(fmax, ks.freq.lo());
        EXPECT_LE(fmax, ks.freq.hi());
        // Grid-aligned.
        EXPECT_NEAR(fmax, ks.freq.quantize(fmax), 1.0);
    }
}

TEST(Exhaustive, AsvRaisesFmax)
{
    Fixture f;
    EnvCapabilities tsOnly = environmentCaps(EnvironmentKind::TS);
    EnvCapabilities withAsv = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer plain(tsOnly, f.cfg.constraints);
    ExhaustiveOptimizer asv(withAsv, f.cfg.constraints);
    const double f0 = plain.maxFrequency(f.core(), SubsystemId::Icache,
                                         false, 0.25, 65.0);
    const double f1 = asv.maxFrequency(f.core(), SubsystemId::Icache,
                                       false, 0.25, 65.0);
    EXPECT_GT(f1, f0);
}

TEST(Exhaustive, CoolerHeatsinkRaisesFmax)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    const double warm = exh.maxFrequency(f.core(), SubsystemId::IntQ,
                                         false, 0.5, 70.0);
    const double cool = exh.maxFrequency(f.core(), SubsystemId::IntQ,
                                         false, 0.5, 50.0);
    EXPECT_GE(cool, warm);
}

TEST(Exhaustive, FmaxRespectsConstraints)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    const SubsystemId id = SubsystemId::Dcache;
    const double alphaF = 0.35;
    const double thC = 65.0;
    const double fmax = exh.maxFrequency(f.core(), id, false, alphaF, thC);
    // Some knob setting must satisfy both constraints at fmax.
    const auto knobs = exh.minimizePower(f.core(), id, false, fmax,
                                         alphaF, thC);
    ASSERT_TRUE(knobs.has_value());
    const auto sol = f.core().evaluateSubsystem(id, false, fmax, *knobs,
                                                alphaF, alphaF, thC);
    EXPECT_LE(sol.thermal.tempC, f.cfg.constraints.tMaxC + 1e-9);
    EXPECT_LE(sol.peAccess,
              perAccessErrorBudget(f.cfg.constraints, alphaF) + 1e-15);
}

TEST(Exhaustive, PowerAlgorithmMinimizes)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    const SubsystemId id = SubsystemId::Decode;
    const double fcore = 3.0e9;

    const auto best = exh.minimizePower(f.core(), id, false, fcore, 0.8,
                                        65.0);
    ASSERT_TRUE(best.has_value());
    const auto bestSol = f.core().evaluateSubsystem(id, false, fcore,
                                                    *best, 0.8, 0.8, 65.0);

    // Any other feasible setting must not be cheaper.
    const KnobSpace ks = caps.knobSpace();
    const double budget = perAccessErrorBudget(f.cfg.constraints, 0.8);
    for (double vdd : ks.vddCandidates(1.0)) {
        SubsystemKnobs k{vdd, 0.0};
        const auto sol = f.core().evaluateSubsystem(id, false, fcore, k,
                                                    0.8, 0.8, 65.0);
        if (sol.functional && sol.thermal.tempC <= f.cfg.constraints.tMaxC &&
            sol.peAccess <= budget) {
            EXPECT_GE(sol.thermal.power(),
                      bestSol.thermal.power() - 1e-9);
        }
    }
}

TEST(Exhaustive, InfeasibleFrequencyReturnsNullopt)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    // 5.6 GHz without any voltage help is far past every subsystem.
    const auto k = exh.minimizePower(f.core(), SubsystemId::Icache, false,
                                     5.6e9, 0.3, 70.0);
    EXPECT_FALSE(k.has_value());
}

/** A plain evaluateSubsystem feasibility check; @p power gets the
 *  setting's power. */
bool
feasibleSetting(const CoreSystemModel &core, const Constraints &c,
                SubsystemId id, bool alt, double f,
                const SubsystemKnobs &k, double alphaF, double thC,
                double &power)
{
    const auto sol =
        core.evaluateSubsystem(id, alt, f, k, alphaF, alphaF, thC);
    power = sol.thermal.power();
    return sol.functional && sol.thermal.tempC <= c.tMaxC &&
           sol.peAccess <= perAccessErrorBudget(c, alphaF);
}

TEST(Exhaustive, MatchesBruteForceScanInEveryFig13Env)
{
    // Both searches prune the knob grid; every prune must be
    // decision-invariant.  Against a scan of the whole grid with no
    // prune at all: maxFrequency is the highest grid frequency at which
    // any (Vdd, Vbb) is feasible, and minimizePower is the cheapest
    // feasible setting, the first in ascending (Vdd, Vbb) order on a
    // tie.
    Fixture f;
    const Constraints &c = f.cfg.constraints;
    Rng rng(0xB7F0);
    std::size_t withPowerAnswer = 0;
    for (const VoltageEnv &env : fig13VoltageEnvs()) {
        const EnvCapabilities caps = fig13Caps(env);
        const KnobSpace ks = caps.knobSpace();
        ExhaustiveOptimizer exh(caps, c);
        for (int q = 0; q < 600; ++q) {
            const CoreSystemModel &core =
                f.ctx->coreModel(rng.uniformInt(2), rng.uniformInt(4));
            const auto id =
                static_cast<SubsystemId>(rng.uniformInt(kNumSubsystems));
            const bool alt =
                core.subsystem(id).hasAlternate() && rng.bernoulli(0.5);
            // Every other query is FC training's draw (0.1-2x alpha_ref,
            // 45-70 C); the rest run hotter, so that TMAX binds and
            // lower-Vdd rows can win.  Some prune faults show on only a
            // few queries in a thousand, hence the count.
            const bool hot = q % 2 == 1;
            const double alphaF = core.subsystem(id).power().alphaRef *
                                  rng.uniform(0.1, hot ? 4.0 : 2.0);
            const double thC = rng.uniform(45.0, hot ? 80.0 : 70.0);
            const auto vdds = ks.vddCandidates(core.params().vddNominal);
            const auto vbbs = ks.vbbCandidates();
            std::ostringstream where;
            where << env.tag << " query " << q << " subsystem "
                  << static_cast<std::size_t>(id) << " alt " << alt;

            const auto anyFeasibleAt = [&](double freq) {
                for (double vdd : vdds) {
                    for (double vbb : vbbs) {
                        double p = 0.0;
                        if (feasibleSetting(core, c, id, alt, freq,
                                            {vdd, vbb}, alphaF, thC, p))
                            return true;
                    }
                }
                return false;
            };
            double fmax = 0.0;
            for (std::size_t fi = ks.freq.size(); fi-- > 0;) {
                if (anyFeasibleAt(ks.freq.value(fi))) {
                    fmax = ks.freq.value(fi);
                    break;
                }
            }
            const bool found = fmax > 0.0;
            EXPECT_EQ(exh.maxFrequency(core, id, alt, alphaF, thC), fmax)
                << where.str();

            // Mostly just below fmax, where deployment asks; sometimes
            // anywhere on the grid, infeasible points included.
            const double u = rng.uniform();
            const double fcore =
                found && rng.bernoulli(0.8)
                    ? ks.freq.quantizeDown(fmax -
                                           (fmax - ks.freq.lo()) * u * u)
                    : ks.freq.value(rng.uniformInt(ks.freq.size()));
            std::optional<SubsystemKnobs> cheapest;
            double cheapestPower = 0.0;
            for (double vdd : vdds) {
                for (double vbb : vbbs) {
                    double p = 0.0;
                    if (feasibleSetting(core, c, id, alt, fcore, {vdd, vbb},
                                        alphaF, thC, p) &&
                        (!cheapest || p < cheapestPower)) {
                        cheapest = SubsystemKnobs{vdd, vbb};
                        cheapestPower = p;
                    }
                }
            }
            const auto got =
                exh.minimizePower(core, id, alt, fcore, alphaF, thC);
            ASSERT_EQ(got.has_value(), cheapest.has_value())
                << where.str() << " fcore " << fcore;
            if (got) {
                ++withPowerAnswer;
                EXPECT_EQ(got->vdd, cheapest->vdd)
                    << where.str() << " fcore " << fcore;
                EXPECT_EQ(got->vbb, cheapest->vbb)
                    << where.str() << " fcore " << fcore;
            }
        }
    }
    // The draw must reach the prunes, not only infeasible queries.
    EXPECT_GT(withPowerAnswer, 1500u);
}

TEST(PerAccessBudget, ScalesInverselyWithActivity)
{
    Constraints c;
    EXPECT_GT(perAccessErrorBudget(c, 0.1), perAccessErrorBudget(c, 1.0));
    // At alpha=1 the budget is PEMAX/n divided by the conservative
    // CPI assumption.
    EXPECT_NEAR(perAccessErrorBudget(c, 1.0),
                c.peMax / kNumSubsystems / 1.3, 1e-12);
}

TEST(CoreOptimizer, ProducesFeasibleConfiguration)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV_Q_FU);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    CoreOptimizer opt(exh, caps, f.cfg.constraints, f.cfg.recovery);
    const PhaseCharacterization ph = f.phase("swim");
    f.core().setAppType(true);

    const AdaptationResult res = opt.choose(f.core(), ph, 65.0);
    EXPECT_TRUE(res.feasible);
    EXPECT_GT(res.predictedPerf, 0.0);

    const CoreEvaluation ev = f.core().evaluate(res.op, ph.act, 65.0);
    EXPECT_LE(ev.pePerInstruction, f.cfg.constraints.peMax * 1.001);
    EXPECT_LE(ev.maxTempC, f.cfg.constraints.tMaxC + 1e-6);
    EXPECT_LE(ev.totalPowerW, f.cfg.constraints.pMaxW);
}

TEST(CoreOptimizer, FrequencyIsMinOfSubsystemLimits)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    CoreOptimizer opt(exh, caps, f.cfg.constraints, f.cfg.recovery);
    const PhaseCharacterization ph = f.phase("gzip");
    f.core().setAppType(false);

    const AdaptationResult res = opt.choose(f.core(), ph, 65.0);
    double fmaxMin = 1e30;
    for (double fm : res.fmax)
        fmaxMin = std::min(fmaxMin, fm);
    EXPECT_LE(res.op.freq, fmaxMin + 1.0);
}

TEST(CoreOptimizer, QueueAndFuDisabledWithoutCapability)
{
    Fixture f;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer exh(caps, f.cfg.constraints);
    CoreOptimizer opt(exh, caps, f.cfg.constraints, f.cfg.recovery);
    const AdaptationResult res = opt.choose(f.core(), f.phase("gzip"),
                                            65.0);
    EXPECT_FALSE(res.op.smallQueue);
    EXPECT_FALSE(res.op.lowSlopeFu);
}

TEST(CoreOptimizer, FreqQueriedOncePerSubsystem)
{
    // Only the queue subsystem's Freq answer depends on the queue
    // size, and the low-slope FU's answer serves both configurations:
    // one query per subsystem, plus one each for the low-slope FU and
    // the small queue.
    Fixture f;
    Counter &queries =
        StatRegistry::global().counter("optimizer.freq_queries");
    const PhaseCharacterization ph = f.phase("swim");
    f.core().setAppType(true);
    const auto queriesPerChoose = [&](EnvironmentKind env) {
        const EnvCapabilities caps = environmentCaps(env);
        ExhaustiveOptimizer exh(caps, f.cfg.constraints);
        CoreOptimizer opt(exh, caps, f.cfg.constraints, f.cfg.recovery);
        const std::uint64_t before = queries.value();
        opt.choose(f.core(), ph, 65.0);
        return queries.value() - before;
    };
    EXPECT_EQ(queriesPerChoose(EnvironmentKind::TS_ASV_Q_FU),
              kNumSubsystems + 2);
    EXPECT_EQ(queriesPerChoose(EnvironmentKind::TS_ASV), kNumSubsystems);
}

TEST(CoreOptimizer, HigherDimensionalEnvironmentsDoNotLoseFrequency)
{
    // Adding techniques can only help (Figure 10 monotonicity).
    Fixture f;
    f.core().setAppType(false);
    const PhaseCharacterization ph = f.phase("crafty");
    auto freqOf = [&f, &ph](EnvironmentKind env) {
        EnvCapabilities caps = environmentCaps(env);
        ExhaustiveOptimizer exh(caps, f.cfg.constraints);
        CoreOptimizer opt(exh, caps, f.cfg.constraints, f.cfg.recovery);
        return opt.choose(f.core(), ph, 65.0).op.freq;
    };
    const double ts = freqOf(EnvironmentKind::TS);
    const double asv = freqOf(EnvironmentKind::TS_ASV);
    const double asvQfu = freqOf(EnvironmentKind::TS_ASV_Q_FU);
    EXPECT_GE(asv, ts);
    EXPECT_GE(asvQfu, asv * 0.999);
}

} // namespace
} // namespace eval
