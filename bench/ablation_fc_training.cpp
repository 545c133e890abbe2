/**
 * @file
 * Ablation: fuzzy-controller design space — rule count and training-set
 * size vs prediction error (the paper chose 25 rules and 10,000
 * examples per FC, Figure 7(a)).
 */

#include "paper.hh"

namespace eval {

void
ablationFcTraining(ExperimentContext &ctx)
{
    const ExperimentConfig &cfg = ctx.config();
    CoreSystemModel &core = ctx.coreModel(0, 0);

    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    ExhaustiveOptimizer exh(caps, cfg.constraints);
    const double fNom = cfg.process.freqNominal;

    TablePrinter table("Ablation: FC rules x training examples "
                       "(mean fmax error, % of nominal)");
    table.header({"rules", "100 ex", "400 ex", "1600 ex", "6400 ex"});

    for (std::size_t rules : {9u, 25u, 49u}) {
        std::vector<std::string> row{std::to_string(rules)};
        for (std::size_t examples : {100u, 400u, 1600u, 6400u}) {
            FuzzyTrainingConfig tcfg;
            tcfg.rules = rules;
            tcfg.examplesPerFc = examples;
            tcfg.seed = 0xAB1A + rules + examples;
            CoreFuzzySystem fc(core, caps, cfg.constraints, tcfg);
            fc.train();

            Rng rng(0xE7A1);
            RunningStats err;
            for (int q = 0; q < 60; ++q) {
                const auto id = static_cast<SubsystemId>(
                    rng.uniformInt(kNumSubsystems));
                const SubsystemModel &sub = core.subsystem(id);
                const double thC = rng.uniform(48.0, 70.0);
                const double alphaF =
                    sub.power().alphaRef * rng.uniform(0.3, 1.8);
                const double fExh =
                    exh.maxFrequency(core, id, false, alphaF, thC);
                const double fFc =
                    fc.predictFmax(id, thC, alphaF, false);
                err.add(std::abs(fFc - fExh) / fNom);
            }
            row.push_back(formatPercent(err.mean(), 2));
        }
        table.row(row);
    }
    table.print();
    std::printf("\npaper setting: 25 rules, 10,000 examples per FC.\n");
}

} // namespace eval
