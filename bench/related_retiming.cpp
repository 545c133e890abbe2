/**
 * @file
 * Related-work comparison (Sec 7): dynamic retiming (ReCycle-style)
 * vs the EVAL framework.  The paper argues EVAL is the more powerful
 * approach — retiming only redistributes slack at a safe clock, while
 * EVAL trades error rate for frequency, reshapes per-stage delay and
 * power with ASV, and manages several techniques at once — reporting
 * ~10-20% for retiming against ~40% for EVAL over the Baseline.
 */

#include <algorithm>

#include "paper.hh"
#include "core/retiming.hh"

namespace eval {

void
relatedRetiming(ExperimentContext &ctx)
{
    const ExperimentConfig &cfg = ctx.config();
    const auto apps = ctx.selectedApps();
    const double fnom = cfg.process.freqNominal;

    // Chip i runs app i mod |apps| on core i mod 4.  Warm what the
    // chip tasks share (characterizations, the NoVar reference on the
    // ideal model), fan the chips out, fold in chip order.
    const std::vector<const AppProfile *> used(
        apps.begin(),
        apps.begin() + static_cast<std::ptrdiff_t>(
                           std::min(ctx.numChips(), apps.size())));
    ctx.warmCharacterizations(used);
    for (const AppProfile *app : used)
        ctx.novarPerf(*app);

    struct ChipResult
    {
        double baseF, retimeF, basePerf, evalF, evalPerf;
    };
    const auto perChip = globalPool().parallelMap(
        ctx.numChips(), [&ctx, &apps, fnom](std::size_t chip) {
            CoreSystemModel &core = ctx.coreModel(chip, chip % 4);
            ChipResult r{};
            r.baseF = core.baselineFrequency() / fnom;
            r.retimeF = retimedFrequency(core) / fnom;

            const AppProfile &app = *apps[chip % apps.size()];
            r.basePerf = ctx.runApp(chip, chip % 4, app,
                                    EnvironmentKind::Baseline,
                                    AdaptScheme::Static)
                             .perfRel;
            const AppRunResult ev = ctx.runApp(
                chip, chip % 4, app, EnvironmentKind::TS_ASV_Q_FU,
                AdaptScheme::FuzzyDyn);
            r.evalF = ev.freqRel;
            r.evalPerf = ev.perfRel;
            return r;
        });

    RunningStats baseF, retimeF, evalF;
    RunningStats basePerf, evalPerf;
    for (const ChipResult &r : perChip) {
        baseF.add(r.baseF);
        retimeF.add(r.retimeF);
        basePerf.add(r.basePerf);
        evalF.add(r.evalF);
        evalPerf.add(r.evalPerf);
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
