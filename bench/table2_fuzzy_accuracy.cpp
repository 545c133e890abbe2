/**
 * @file
 * Table 2: mean |Fuzzy Controller - Exhaustive| for the selected
 * frequency, Vdd, and Vbb, split by subsystem type (memory / mixed /
 * logic), for the environments TS, TS+ABB, TS+ASV, TS+ABB+ASV.
 *
 * Paper shape: frequency errors of a few percent of nominal, Vdd
 * errors of a couple of percent, Vbb errors of roughly a hundred mV.
 */

#include "paper.hh"

namespace eval {

namespace {

/** Random (subsystem, TH, alpha) queries per chip and environment. */
constexpr int kQueriesPerCore = 40;

EnvCapabilities
makeCaps(bool abb, bool asv)
{
    EnvCapabilities caps;
    caps.timingSpec = true;
    caps.abb = abb;
    caps.asv = asv;
    return caps;
}

std::size_t
typeIndex(StageType t)
{
    switch (t) {
      case StageType::Memory: return 0;
      case StageType::Mixed:  return 1;
      case StageType::Logic:  return 2;
    }
    return 0;
}

} // namespace

void
table2FuzzyAccuracy(ExperimentContext &ctx)
{
    const double fNom = ctx.config().process.freqNominal;

    TablePrinter table(
        "Table 2: |Fuzzy - Exhaustive| by subsystem type");
    table.header({"param", "environment", "Memory", "Mixed", "Logic"});

    struct EnvSpec
    {
        const char *name;
        bool abb;
        bool asv;
    };
    const std::vector<EnvSpec> envs = {{"TS", false, false},
                                       {"TS+ABB", true, false},
                                       {"TS+ASV", false, true},
                                       {"TS+ABB+ASV", true, true}};

    // errs[param][env][type]; param 0 = freq, 1 = vdd, 2 = vbb.
    std::vector<std::vector<std::array<RunningStats, 3>>> errs(
        3, std::vector<std::array<RunningStats, 3>>(envs.size()));

    for (std::size_t e = 0; e < envs.size(); ++e) {
        const EnvCapabilities caps = makeCaps(envs[e].abb, envs[e].asv);
        ExhaustiveOptimizer exh(caps, ctx.config().constraints);

        for (int chip = 0; chip < ctx.config().chips; ++chip) {
            const std::size_t coreIdx = chip % 4;
            CoreSystemModel &core = ctx.coreModel(chip, coreIdx);
            const CoreFuzzySystem &fc =
                ctx.coreFuzzy(chip, coreIdx, caps);
            Rng rng(0x7AB2 + chip);

            for (int q = 0; q < kQueriesPerCore; ++q) {
                const auto id = static_cast<SubsystemId>(
                    rng.uniformInt(kNumSubsystems));
                const SubsystemModel &sub = core.subsystem(id);
                const std::size_t type = typeIndex(sub.info().type);
                const double thC = rng.uniform(48.0, 70.0);
                const double alphaF =
                    sub.power().alphaRef * rng.uniform(0.3, 1.8);

                const double fExh =
                    exh.maxFrequency(core, id, false, alphaF, thC);
                const double fFc =
                    fc.predictFmax(id, thC, alphaF, false);
                errs[0][e][type].add(std::abs(fFc - fExh));

                if (!envs[e].abb && !envs[e].asv)
                    continue;
                const KnobSpace grid = caps.knobSpace();
                const double fcore = grid.freq.quantizeDown(
                    std::max(grid.freq.lo(), 0.9 * fExh));
                const auto kExh = exh.minimizePower(core, id, false,
                                                    fcore, alphaF, thC);
                if (!kExh)
                    continue;
                const SubsystemKnobs kFc =
                    fc.predictKnobs(id, thC, alphaF, false, fcore);
                if (envs[e].asv)
                    errs[1][e][type].add(std::abs(kFc.vdd - kExh->vdd));
                if (envs[e].abb)
                    errs[2][e][type].add(std::abs(kFc.vbb - kExh->vbb));
            }
        }
    }

    // Frequency rows (MHz and % of nominal).
    for (std::size_t e = 0; e < envs.size(); ++e) {
        std::vector<std::string> row{"Freq (MHz)", envs[e].name};
        for (int t = 0; t < 3; ++t) {
            const double mhz = errs[0][e][t].mean() / 1e6;
            row.push_back(formatDouble(mhz, 0) + " (" +
                          formatDouble(100.0 * mhz * 1e6 / fNom, 1) +
                          "%)");
        }
        table.row(row);
    }
    for (std::size_t e = 0; e < envs.size(); ++e) {
        if (!envs[e].asv)
            continue;
        std::vector<std::string> row{"Vdd (mV)", envs[e].name};
        for (int t = 0; t < 3; ++t)
            row.push_back(formatDouble(errs[1][e][t].mean() * 1e3, 0));
        table.row(row);
    }
    for (std::size_t e = 0; e < envs.size(); ++e) {
        if (!envs[e].abb)
            continue;
        std::vector<std::string> row{"Vbb (mV)", envs[e].name};
        for (int t = 0; t < 3; ++t)
            row.push_back(formatDouble(errs[2][e][t].mean() * 1e3, 0));
        table.row(row);
    }
    table.print();
    std::printf("\n%d queries per core, %d chips; paper reports "
                "~135-450 MHz freq error and ~14-24 mV Vdd error.\n",
                kQueriesPerCore, ctx.config().chips);
}

} // namespace eval
