/**
 * @file
 * Speed binning under variation: the economics the paper's intro
 * motivates.  A manufacturer bins each die at its shipping frequency.
 * Worst-case (Baseline) rating wastes the silicon's potential; an
 * EVAL-style part ships with timing speculation + adaptation and bins
 * dramatically higher.
 *
 * Run: ./build/examples/chip_binning        (EVAL_CHIPS to resize)
 */

#include <cstdio>

#include "core/eval.hh"
#include "exec/thread_pool.hh"

using namespace eval;

int
main()
{
    setGlobalThreads(0);   // EVAL_THREADS, else hardware concurrency
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = static_cast<int>(envInt("EVAL_CHIPS", 40));
    ExperimentContext ctx(cfg);

    const AppProfile &app = appByName("gzip");   // binning workload
    const double fNom = cfg.process.freqNominal;

    Histogram baseBins(2.4, 5.2, 14);   // 200 MHz bins
    Histogram evalBins(2.4, 5.2, 14);
    RunningStats baseF, evalF, evalPower;

    // Bin the chips in parallel (one task per chip), then report in
    // chip order so the printout and stats match a serial run.
    struct BinRun
    {
        AppRunResult base, adapted;
    };
    const auto perChip = globalPool().parallelMap(
        static_cast<std::size_t>(cfg.chips), [&](std::size_t chip) {
            BinRun run;
            run.base = ctx.runApp(chip, 0, app,
                                  EnvironmentKind::Baseline,
                                  AdaptScheme::Static);
            run.adapted = ctx.runApp(chip, 0, app,
                                     EnvironmentKind::TS_ASV_Q_FU,
                                     AdaptScheme::FuzzyDyn);
            return run;
        });

    for (int chip = 0; chip < cfg.chips; ++chip) {
        const AppRunResult &base = perChip[chip].base;
        const AppRunResult &adapted = perChip[chip].adapted;

        baseBins.add(base.freqRel * fNom / 1e9);
        evalBins.add(adapted.freqRel * fNom / 1e9);
        baseF.add(base.freqRel);
        evalF.add(adapted.freqRel);
        evalPower.add(adapted.powerW);
        std::printf("chip %2d: baseline %.1f GHz -> EVAL %.1f GHz "
                    "(%.1f W)\n",
                    chip, base.freqRel * fNom / 1e9,
                    adapted.freqRel * fNom / 1e9, adapted.powerW);
    }

    std::printf("\n== shipping-frequency bins, worst-case rated "
                "(GHz) ==\n%s",
                baseBins.render(40).c_str());
    std::printf("\n== shipping-frequency bins, EVAL "
                "(TS+ASV+Q+FU, Fuzzy-Dyn) ==\n%s",
                evalBins.render(40).c_str());
    std::printf("\nmean bin: %.2f GHz -> %.2f GHz (+%.0f%%), "
                "mean power %.1f W (cap %.0f W)\n",
                baseF.mean() * fNom / 1e9, evalF.mean() * fNom / 1e9,
                100.0 * (evalF.mean() / baseF.mean() - 1.0),
                evalPower.mean(), cfg.constraints.pMaxW);
    std::printf("median uplift ships ~%d bins higher at %.1f%% area "
                "cost (Figure 7(d)).\n",
                static_cast<int>((evalF.mean() - baseF.mean()) * fNom /
                                 0.2e9),
                totalAreaOverheadPercent(AreaModelConfig{}));
    return 0;
}
