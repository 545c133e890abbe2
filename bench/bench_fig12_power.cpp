/**
 * @file
 * Figure 12: average power per processor (core + L1 + L2, plus the
 * checker in TS environments) for each environment and scheme.
 *
 * Paper shape: NoVar ~25W against a 30W cap, Baseline ~17W (it runs
 * slower), power rising as mitigation techniques are added, with the
 * preferred dynamic scheme using essentially the whole 30W budget.
 */

#include "bench_common.hh"

using namespace eval;

int
main()
{
    BenchReporter reporter("fig12_power");
    ExperimentContext ctx(benchConfig(16));
    const SweepResult sweep =
        runEnvironmentSweep(ctx, figureEnvironments(), allSchemes());

    printEnvironmentFigure(sweep,
                           "Figure 12: power per processor (W)",
                           "powerW", &SweepCell::powerW, 1);

    const auto &preferred = sweep.cells.at(SweepResult::key(
        EnvironmentKind::TS_ASV_Q_FU, AdaptScheme::FuzzyDyn));
    std::printf("headline: NoVar %.1f W, Baseline %.1f W, preferred "
                "(Fuzzy-Dyn) %.1f W against PMAX = %.0f W\n",
                sweep.novar.powerW.mean(), sweep.baseline.powerW.mean(),
                preferred.powerW.mean(),
                ctx.config().constraints.pMaxW);
    reporter.metric("baseline_power_w", sweep.baseline.powerW.mean());
    reporter.metric("preferred_power_w", preferred.powerW.mean());
    reporter.metric("pmax_w", ctx.config().constraints.pMaxW);
    return 0;
}
