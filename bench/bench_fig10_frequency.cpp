/**
 * @file
 * Figure 10: processor frequency for each environment of Table 1,
 * normalized to NoVar, under Static / Fuzzy-Dyn / Exh-Dyn adaptation.
 *
 * Paper shape: Baseline ~0.78; TS adds ~12%; TS+ASV reaches ~0.97
 * static and >1 dynamic; ABB adds little; Q+FU push the dynamic
 * schemes well past NoVar; Fuzzy-Dyn ~ Exh-Dyn everywhere.
 */

#include "bench_common.hh"

using namespace eval;

int
main()
{
    BenchReporter reporter("fig10_frequency");
    ExperimentContext ctx(benchConfig(16));
    const SweepResult sweep =
        runEnvironmentSweep(ctx, figureEnvironments(), allSchemes());

    printEnvironmentFigure(sweep,
                           "Figure 10: relative frequency (f / f_NoVar)",
                           "freqRel", &SweepCell::freqRel);

    // Headline summary rows.
    const auto &preferred = sweep.cells.at(SweepResult::key(
        EnvironmentKind::TS_ASV_Q_FU, AdaptScheme::FuzzyDyn));
    std::printf("headline: Baseline fR = %.3f; preferred "
                "(TS+ASV+Q+FU, Fuzzy-Dyn) fR = %.3f "
                "(+%.0f%% over Baseline)\n",
                sweep.baseline.freqRel.mean(),
                preferred.freqRel.mean(),
                100.0 * (preferred.freqRel.mean() /
                             sweep.baseline.freqRel.mean() -
                         1.0));
    reporter.metric("baseline_freq_rel", sweep.baseline.freqRel.mean());
    reporter.metric("preferred_freq_rel", preferred.freqRel.mean());
    reporter.metric("chips", ctx.config().chips);
    return 0;
}
