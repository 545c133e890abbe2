/**
 * @file
 * Related-work comparison (Sec 7): dynamic retiming (ReCycle-style)
 * vs the EVAL framework.  The paper argues EVAL is the more powerful
 * approach — retiming only redistributes slack at a safe clock, while
 * EVAL trades error rate for frequency, reshapes per-stage delay and
 * power with ASV, and manages several techniques at once — reporting
 * ~10-20% for retiming against ~40% for EVAL over the Baseline.
 */

#include "paper.hh"
#include "core/retiming.hh"

namespace eval {

void
relatedRetiming(ExperimentContext &ctx)
{
    const ExperimentConfig &cfg = ctx.config();
    const auto apps = ctx.selectedApps();

    RunningStats baseF, retimeF, evalF;
    RunningStats basePerf, evalPerf;

    for (int chip = 0; chip < cfg.chips; ++chip) {
        CoreSystemModel &core = ctx.coreModel(chip, chip % 4);
        baseF.add(core.baselineFrequency() / cfg.process.freqNominal);
        retimeF.add(retimedFrequency(core) / cfg.process.freqNominal);

        const AppProfile &app = *apps[chip % apps.size()];
        const AppRunResult base = ctx.runApp(
            chip, chip % 4, app, EnvironmentKind::Baseline,
            AdaptScheme::Static);
        const AppRunResult ev = ctx.runApp(
            chip, chip % 4, app, EnvironmentKind::TS_ASV_Q_FU,
            AdaptScheme::FuzzyDyn);
        basePerf.add(base.perfRel);
        evalF.add(ev.freqRel);
        evalPerf.add(ev.perfRel);
    }

    TablePrinter table("Sec 7: dynamic retiming vs EVAL");
    table.header({"scheme", "mean fR", "freq gain over Baseline"});
    table.row({"Baseline (worst-case rated)",
               formatDouble(baseF.mean(), 3), "-"});
    table.row({"Dynamic retiming (ReCycle-style)",
               formatDouble(retimeF.mean(), 3),
               formatPercent(retimeF.mean() / baseF.mean() - 1.0, 1)});
    table.row({"EVAL (TS+ASV+Q+FU, Fuzzy-Dyn)",
               formatDouble(evalF.mean(), 3),
               formatPercent(evalF.mean() / baseF.mean() - 1.0, 1)});
    table.print();

    std::printf("\nperformance: Baseline PerfR %.3f -> EVAL PerfR %.3f "
                "(+%.0f%%)\n",
                basePerf.mean(), evalPerf.mean(),
                100.0 * (evalPerf.mean() / basePerf.mean() - 1.0));
    std::printf("paper: retiming gains 10-20%%, EVAL ~40%% (Sec 7).\n");
}

} // namespace eval
