/**
 * @file
 * Figure 11: processor performance for each environment, normalized to
 * NoVar, under Static / Fuzzy-Dyn / Exh-Dyn adaptation.
 *
 * Paper shape: performance follows the frequency trends of Figure 10
 * with smaller magnitudes (memory time does not scale with f); the
 * preferred scheme gains ~40% over Baseline.
 */

#include "bench_common.hh"

using namespace eval;

int
main()
{
    BenchReporter reporter("fig11_performance");
    ExperimentContext ctx(benchConfig(16));
    const SweepResult sweep =
        runEnvironmentSweep(ctx, figureEnvironments(), allSchemes());

    printEnvironmentFigure(
        sweep, "Figure 11: relative performance (Perf / Perf_NoVar)",
        "perfRel", &SweepCell::perfRel);

    const auto &preferred = sweep.cells.at(SweepResult::key(
        EnvironmentKind::TS_ASV_Q_FU, AdaptScheme::FuzzyDyn));
    std::printf("headline: Baseline PerfR = %.3f; preferred "
                "(TS+ASV+Q+FU, Fuzzy-Dyn) PerfR = %.3f "
                "(+%.0f%% over Baseline)\n",
                sweep.baseline.perfRel.mean(),
                preferred.perfRel.mean(),
                100.0 * (preferred.perfRel.mean() /
                             sweep.baseline.perfRel.mean() -
                         1.0));
    reporter.metric("baseline_perf_rel", sweep.baseline.perfRel.mean());
    reporter.metric("preferred_perf_rel", preferred.perfRel.mean());
    reporter.metric("chips", ctx.config().chips);
    return 0;
}
