/**
 * @file
 * Figure 1: the VATS view of variation-induced timing errors.
 *  (a) dynamic path-delay distribution without variation
 *  (b) the same distribution spread out by variation (Tvar > Tnom)
 *  (c) per-stage error rate PE vs frequency
 *  (d) error rate of a multi-stage pipeline (Eq 4)
 */

#include "paper.hh"

namespace eval {

namespace {

Histogram
delayHistogram(const Chip &chip, SubsystemId id)
{
    Rng rng = chip.forkRng(0xF16);
    const PathPopulation pop =
        buildPathPopulation(chip, 0, id, PathPopulationParams{}, rng);
    Histogram h(0.4, 1.4, 50);
    const double tNom = 1.0 / chip.params().freqNominal;
    for (const auto &p : pop.paths)
        h.add(p.delayRef / tNom, p.sensitization);
    return h;
}

} // namespace

void
fig01Vats(ExperimentContext &ctx)
{
    const ProcessParams &proc = ctx.config().process;
    ChipFactory factory(proc, ctx.config().seed);
    const Chip chip = factory.manufacture();
    const Chip ideal = factory.manufactureIdeal();

    // (a)/(b): sensitization-weighted dynamic path-delay distribution
    // of a logic stage, without and with variation.
    std::printf("== Figure 1(a): path delays without variation "
                "(Decode, delay / Tnom, weighted by exercise rate) ==\n");
    std::fputs(delayHistogram(ideal, SubsystemId::Decode).render(40).c_str(),
               stdout);
    std::printf("\n== Figure 1(b): path delays with variation ==\n");
    std::fputs(delayHistogram(chip, SubsystemId::Decode).render(40).c_str(),
               stdout);

    // (c)/(d): PE vs f per stage and for a 2-stage pipeline (Eq 4).
    Rng rng = chip.forkRng(0xF17);
    StageErrorModel logic(
        proc, buildPathPopulation(chip, 0, SubsystemId::Decode,
                                  PathPopulationParams{}, rng));
    StageErrorModel memory(
        proc, buildPathPopulation(chip, 0, SubsystemId::Icache,
                                  PathPopulationParams{}, rng));
    const OperatingConditions corner = OperatingConditions::nominal(proc);

    SeriesSet series("Figure 1(c)/(d): error rate vs frequency", "fR");
    const std::size_t sLogic = series.addSeries("PE_logic_stage");
    const std::size_t sMem = series.addSeries("PE_memory_stage");
    const std::size_t sPipe = series.addSeries("PE_pipeline_eq4");
    for (double fr = 0.70; fr <= 1.40 + 1e-9; fr += 0.01) {
        const double period = 1.0 / (fr * proc.freqNominal);
        const double peL = logic.errorRatePerAccess(period, corner);
        const double peM = memory.errorRatePerAccess(period, corner);
        series.addSample(fr);
        series.setValue(sLogic, peL);
        series.setValue(sMem, peM);
        // Two-stage pipeline: rho = accesses/instruction per stage.
        series.setValue(sPipe, processorErrorRate({peL, peM},
                                                  {0.8, 0.3}));
    }
    series.print();

    std::printf("\nfvar: logic %.2f GHz, memory %.2f GHz "
                "(Tnom period corresponds to %.2f GHz)\n",
                logic.fvar(corner) / 1e9, memory.fvar(corner) / 1e9,
                proc.freqNominal / 1e9);
}

} // namespace eval
