/**
 * @file
 * Ablation: the error-mitigation techniques in isolation.
 *  - Queue resizing: CPI cost of the 3/4 queue vs the frequency gain
 *    of its shifted PE curve (Sec 3.3.2's "room to trade PE for f").
 *  - FU replication: frequency gained by the low-slope implementation
 *    and its power cost (Sec 3.3.1).
 *  - The paper's observation that Q+FU without ASV barely help
 *    (Sec 6.2: ~2%), because nothing pushes the FUs/queues critical.
 */

#include <map>

#include "paper.hh"

namespace eval {

void
ablationTechniques(ExperimentContext &ctx)
{
    const ExperimentConfig &cfg = ctx.config();
    const char *const queueApps[] = {"gzip", "crafty", "swim", "mcf",
                                     "lucas"};
    const auto apps = ctx.selectedApps();
    std::vector<const AppProfile *> used;
    for (const char *name : queueApps)
        used.push_back(&appByName(name));
    for (std::size_t a = 0; a < apps.size(); a += 3)
        used.push_back(apps[a]);
    ctx.warmCharacterizations(used);

    // --- Queue resize CPI cost across the suite ---
    TablePrinter qt("Queue resize: CPIcomp full vs 3/4 (phase 0)");
    qt.header({"app", "CPI full", "CPI 3/4", "IPC loss"});
    for (const char *name : queueApps) {
        const auto &chr = ctx.characterizations().get(appByName(name));
        const double full = chr.phases[0].chr.perfFull.cpiComp;
        const double small = chr.phases[0].chr.perfSmall.cpiComp;
        qt.row({name, formatDouble(full, 3), formatDouble(small, 3),
                formatPercent(small / full - 1.0, 1)});
    }
    qt.print();
    std::printf("\n");

    // --- Per-technique frequency deltas, with and without ASV ---
    struct Combo
    {
        const char *name;
        bool asv, queue, fu;
    };
    const std::vector<Combo> combos = {
        {"TS", false, false, false},
        {"TS+Q", false, true, false},
        {"TS+FU", false, false, true},
        {"TS+Q+FU", false, true, true},
        {"TS+ASV", true, false, false},
        {"TS+ASV+Q", true, true, false},
        {"TS+ASV+FU", true, false, true},
        {"TS+ASV+Q+FU", true, true, true},
    };

    TablePrinter ft("Technique ablation: mean chosen fR (Exh-Dyn)");
    ft.header({"combo", "fR", "delta vs base"});
    std::map<std::string, double> fr;

    for (const Combo &combo : combos) {
        EnvCapabilities caps;
        caps.timingSpec = true;
        caps.asv = combo.asv;
        caps.queueResize = combo.queue;
        caps.fuReplication = combo.fu;
        ExhaustiveOptimizer exh(caps, cfg.constraints);
        CoreOptimizer opt(exh, caps, cfg.constraints, cfg.recovery);

        // Per-chip fan-out (the shared CoreOptimizer only issues const
        // queries); serial chip-order accumulation keeps the stats
        // bit-identical to a serial run.
        const auto perChip = globalPool().parallelMap(
            static_cast<std::size_t>(cfg.chips),
            [&ctx, &apps, &opt, &cfg](std::size_t chip) {
                std::vector<double> freqs;
                for (std::size_t a = 0; a < apps.size(); a += 3) {
                    const AppProfile &app = *apps[a];
                    CoreSystemModel &core =
                        ctx.coreModel(chip, (chip + a) % 4);
                    core.setAppType(app.isFp);
                    const auto &phase =
                        ctx.characterizations().get(app).phases[0].chr;
                    const AdaptationResult res =
                        opt.choose(core, phase, 65.0);
                    freqs.push_back(res.op.freq /
                                    cfg.process.freqNominal);
                }
                return freqs;
            });
        RunningStats freq;
        for (const auto &freqs : perChip)
            for (double f : freqs)
                freq.add(f);
        fr[combo.name] = freq.mean();
        const double base = combo.asv ? fr["TS+ASV"] : fr["TS"];
        ft.row({combo.name, formatDouble(freq.mean(), 3),
                formatPercent(freq.mean() / base - 1.0, 1)});
    }
    ft.print();
    std::printf("\npaper shape: Q and FU add ~2%% without ASV but "
                "meaningfully more once ASV pushes the FUs and queues "
                "critical (Sec 6.2).\n");
}

} // namespace eval
