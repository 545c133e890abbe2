/**
 * @file
 * Figure 8: PE, power, and frequency are tradeable (swim on one sample
 * chip).
 *  (a) per-subsystem PE vs fR under TS (nominal voltages)
 *  (b) processor performance vs fR under TS
 *  (c) per-subsystem PE vs fR under TS+ASV+ABB set by Exhaustive
 *  (d) processor performance vs fR under TS+ASV+ABB
 */

#include "paper.hh"

namespace eval {

namespace {

struct Sweep
{
    ExperimentContext &ctx;
    CoreSystemModel &core;
    PhaseCharacterization phase;
    double novar;
    double thC = 65.0;

    /** Emit one (a)+(b)-style block for the given knob policy. */
    void
    emit(const std::string &title, bool useExhaustiveKnobs)
    {
        const EnvCapabilities caps =
            environmentCaps(EnvironmentKind::TS_ASV_ABB);
        ExhaustiveOptimizer exh(caps, ctx.config().constraints);

        SeriesSet series(title, "fR");
        std::vector<std::size_t> cols;
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            cols.push_back(series.addSeries(
                std::string(core.subsystem(id).info().name) + "_" +
                stageTypeName(core.subsystem(id).info().type)));
        }
        const std::size_t perfCol = series.addSeries("PerfR");
        const std::size_t peCol = series.addSeries("PE_total");

        double bestPerf = 0.0, bestFr = 0.0;
        for (double fr = 0.70; fr <= 1.30 + 1e-9; fr += 0.02) {
            OperatingPoint op = nominalOperatingPoint(ctx.config().process);
            op.freq = fr * ctx.config().process.freqNominal;
            if (useExhaustiveKnobs) {
                for (std::size_t i = 0; i < kNumSubsystems; ++i) {
                    const auto id = static_cast<SubsystemId>(i);
                    const auto k = exh.minimizePower(
                        core, id, false, op.freq, phase.act.alpha[i],
                        thC);
                    if (k)
                        op.knobsOf(id) = *k;
                    else
                        op.knobsOf(id) = {1.20, 0.50};   // best effort
                }
            }
            const CoreEvaluation ev = core.evaluate(op, phase.act, thC);
            series.addSample(fr);
            for (std::size_t i = 0; i < kNumSubsystems; ++i)
                series.setValue(cols[i], ev.peAccess[i]);
            const double perf =
                performance(op.freq, ev.pePerInstruction,
                            phase.perfFull) /
                novar;
            series.setValue(perfCol, perf);
            series.setValue(peCol, ev.pePerInstruction);
            if (perf > bestPerf) {
                bestPerf = perf;
                bestFr = fr;
            }
        }
        series.print();
        std::printf("# optimum: fR=%.2f PerfR=%.3f\n\n", bestFr, bestPerf);
    }
};

} // namespace

void
fig08Tradeoff(ExperimentContext &ctx)
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

    Sweep sweep{ctx, core, phase, novar};
    std::printf("baseline fR of this chip: %.3f\n\n",
                core.baselineFrequency() / cfg.process.freqNominal);
    sweep.emit("Figure 8(a)/(b): subsystem PE and PerfR vs fR under TS",
               false);
    sweep.emit("Figure 8(c)/(d): subsystem PE and PerfR vs fR under "
               "TS+ASV+ABB (Exhaustive)",
               true);
}

} // namespace eval
