/**
 * @file
 * The EVAL taxonomy of Figure 2: how Tilt, Shift, and Reshape move a
 * subsystem's PE-vs-frequency curve.
 *
 *  - Tilt:    low-slope FU replica (slower onset, same fvar)
 *  - Shift:   3/4-sized SRAM (whole curve moves right)
 *  - Reshape: ASV/ABB (slow subsystem sped up at a power cost)
 *
 * Prints one CSV block per technique; plot PE (log y) vs fR to see
 * the four panels of Figure 2.
 */

#include "paper.hh"

namespace eval {

namespace {

void
emitCurve(SeriesSet &series, std::size_t col, const StageErrorModel &model,
          const OperatingConditions &op, double fNom, bool newAxis)
{
    std::size_t idx = 0;
    for (double fr = 0.80; fr <= 1.35 + 1e-9; fr += 0.01, ++idx) {
        if (newAxis)
            series.addSample(fr);
        const double pe =
            model.errorRatePerAccess(1.0 / (fr * fNom), op);
        series.setValue(col, pe);
    }
}

} // namespace

void
fig02Techniques(ExperimentContext &ctx)
{
    const ProcessParams &proc = ctx.config().process;
    ChipFactory factory(proc, ctx.config().seed);
    const Chip chip = factory.manufacture();
    const double fNom = proc.freqNominal;
    const OperatingConditions nominal{proc.vddNominal, 0.0, 70.0};

    // --- Tilt: normal vs low-slope FU (IntALU) ---
    {
        Rng rngA = chip.forkRng(1);
        Rng rngB = chip.forkRng(1);   // same variation draw
        PathPopulationParams normal = defaultPathParams(SubsystemId::IntALU);
        PathPopulationParams low = normal;
        low.lowSlope = true;
        StageErrorModel a(proc, buildPathPopulation(chip, 0,
                                                    SubsystemId::IntALU,
                                                    normal, rngA));
        StageErrorModel b(proc, buildPathPopulation(chip, 0,
                                                    SubsystemId::IntALU,
                                                    low, rngB));
        SeriesSet s("Figure 2(b) Tilt: FU replica", "fR");
        const std::size_t c1 = s.addSeries("normal");
        const std::size_t c2 = s.addSeries("low_slope");
        emitCurve(s, c1, a, nominal, fNom, true);
        emitCurve(s, c2, b, nominal, fNom, false);
        s.print();
        std::printf("# fvar: normal %.2f GHz, low-slope %.2f GHz "
                    "(unchanged wall, gentler onset)\n\n",
                    a.fvar(nominal) / 1e9, b.fvar(nominal) / 1e9);
    }

    // --- Shift: full vs 3/4 issue queue (IntQ) ---
    {
        Rng rngA = chip.forkRng(2);
        Rng rngB = chip.forkRng(2);
        PathPopulationParams full = defaultPathParams(SubsystemId::IntQ);
        PathPopulationParams small = full;
        small.shiftFactor = 0.92;
        StageErrorModel a(proc, buildPathPopulation(chip, 0,
                                                    SubsystemId::IntQ,
                                                    full, rngA));
        StageErrorModel b(proc, buildPathPopulation(chip, 0,
                                                    SubsystemId::IntQ,
                                                    small, rngB));
        SeriesSet s("Figure 2(c) Shift: queue resize", "fR");
        const std::size_t c1 = s.addSeries("full_68");
        const std::size_t c2 = s.addSeries("threequarter_51");
        emitCurve(s, c1, a, nominal, fNom, true);
        emitCurve(s, c2, b, nominal, fNom, false);
        s.print();
        std::printf("# fvar: full %.2f GHz, 3/4 %.2f GHz (whole curve "
                    "shifts right; IPC drops slightly)\n\n",
                    a.fvar(nominal) / 1e9, b.fvar(nominal) / 1e9);
    }

    // --- Reshape: ASV/ABB on a slow subsystem (Icache) ---
    {
        Rng rng = chip.forkRng(3);
        StageErrorModel m(proc,
                          buildPathPopulation(
                              chip, 0, SubsystemId::Icache,
                              defaultPathParams(SubsystemId::Icache),
                              rng));
        SeriesSet s("Figure 2(d) Reshape: ASV/ABB", "fR");
        const std::size_t c1 = s.addSeries("vdd_1.00");
        const std::size_t c2 = s.addSeries("vdd_1.15");
        const std::size_t c3 = s.addSeries("vdd_0.90_saves_power");
        emitCurve(s, c1, m, {1.00, 0.0, 70.0}, fNom, true);
        emitCurve(s, c2, m, {1.15, 0.0, 70.0}, fNom, false);
        emitCurve(s, c3, m, {0.90, 0.0, 70.0}, fNom, false);
        s.print();
        std::printf("# raising Vdd pushes the slow subsystem's curve "
                    "right (speed); lowering it on fast subsystems "
                    "saves power: together they reshape the processor "
                    "curve.\n");
    }
}

} // namespace eval
