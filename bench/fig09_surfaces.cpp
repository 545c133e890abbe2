/**
 * @file
 * Figure 9: three-dimensional power vs error-rate vs frequency (a) and
 * power vs error-rate vs performance (b) surfaces for the integer ALU
 * of one sample chip, in the presence of per-subsystem ASV/ABB.
 *
 * For each (power budget, fR) cell we search the knob space for the
 * minimum realizable PE whose subsystem power fits the budget (the
 * Exhaustive construction of Sec 4.3.1).  Output is a long-format CSV
 * (powerW, fR, PE, PerfR).
 */

#include "paper.hh"

namespace eval {

void
fig09Surfaces(ExperimentContext &ctx)
{
    const ExperimentConfig &cfg = ctx.config();

    const AppProfile &app = appByName("swim");
    CoreSystemModel &core = ctx.coreModel(0, 0);
    core.setAppType(app.isFp);
    const PhaseCharacterization phase =
        ctx.characterizations().get(app).phases[0].chr;
    // Normalize against the no-variation processor at nominal f on
    // this same phase (avoids cross-phase weighting artifacts).
    const double novar =
        performance(cfg.process.freqNominal, 0.0, phase.perfFull);
    const double thC = 65.0;

    const SubsystemId id = SubsystemId::IntALU;
    const auto idx = static_cast<std::size_t>(id);
    const double alphaF = phase.act.alpha[idx];
    const double rho = phase.act.rho[idx];
    KnobSpace knobs;   // full ASV+ABB space

    std::printf("# Figure 9: min-PE surface for IntALU (swim, chip 0)\n");
    std::printf("powerW,fR,PE,PerfR\n");
    for (double budget = 0.4; budget <= 3.2 + 1e-9; budget += 0.4) {
        for (double fr = 0.80; fr <= 1.40 + 1e-9; fr += 0.05) {
            const double freq = fr * cfg.process.freqNominal;
            double bestPe = 1.0;
            bool feasible = false;
            for (double vdd : knobs.vdd.values()) {
                for (double vbb : knobs.vbb.values()) {
                    const auto sol = core.evaluateSubsystem(
                        id, false, freq, {vdd, vbb}, alphaF, rho, thC);
                    if (!sol.functional ||
                        sol.thermal.power() > budget ||
                        sol.thermal.tempC >
                            cfg.constraints.tMaxC) {
                        continue;
                    }
                    feasible = true;
                    bestPe = std::min(bestPe, sol.peAccess);
                }
            }
            if (!feasible)
                continue;
            // (b): performance if the rest of the processor were error
            // free and this subsystem contributed rho * PE recoveries.
            const double perf =
                performance(freq, rho * bestPe, phase.perfFull) / novar;
            std::printf("%.2f,%.2f,%.3e,%.4f\n", budget, fr, bestPe,
                        perf);
        }
    }

    std::printf("\n# Reading the surface: at constant power, PE stays "
                "~0 then rises steeply with fR (line 1 of Fig 9a);\n"
                "# spending more power sustains a higher fR at the "
                "same PE (line 2).\n");
}

} // namespace eval
