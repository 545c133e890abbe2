#include "valid/experiments.hh"

#include <string>
#include <vector>

#include "core/environment.hh"
#include "core/optimizer.hh"
#include "util/logging.hh"
#include "valid/serializers.hh"
#include "variation/chip.hh"
#include "workload/profile.hh"

namespace eval {

namespace {

/** Controller invocations happen at this heat-sink temperature. */
constexpr double kThC = 65.0;

std::string
subsystemTag(std::size_t i)
{
    // Built by appending: GCC 12 -O3 reports a false -Wrestrict on
    // `"literal" + std::string` (an inlined insert at offset 0).
    std::string tag = "s";
    return tag.append(std::to_string(i));
}

ProcessParams
tweakedParams(ProcessParams p, const ExperimentTweaks &tweaks)
{
    p.delayVariationGain *= tweaks.delayVariationGainScale;
    return p;
}

double
snapshotDigest(const JsonValue &snapshot)
{
    return digest53(encodeBinary(snapshot));
}

// -- chip_population ----------------------------------------------------

GoldenFile
runChipPopulation(const ExperimentTweaks &tweaks)
{
    constexpr std::uint64_t kSeed = 20080642;
    constexpr std::size_t kChips = 8;

    GoldenFile golden("chip_population");
    ProcessParams params = tweakedParams(ProcessParams{}, tweaks);
    ChipFactory factory(params, kSeed);
    const std::vector<Chip> chips = factory.manufacture(kChips);

    golden.addExact("num_chips", static_cast<double>(chips.size()));
    for (const Chip &chip : chips) {
        golden.addExact("chip" + std::to_string(chip.id()) + "_digest",
                        snapshotDigest(toSnapshot(chip)));
    }
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        golden.addExact("chip0_vt_sys_" + subsystemTag(i),
                        chips[0].subsystemVtSys(0, id));
        golden.addExact("chip0_leff_sys_" + subsystemTag(i),
                        chips[0].subsystemLeffSys(0, id));
    }
    return golden;
}

// -- optimizer_decisions ------------------------------------------------

ExperimentConfig
microConfig(std::uint64_t seed, int chips,
            std::vector<std::string> apps,
            const ExperimentTweaks &tweaks)
{
    ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.chips = chips;
    cfg.simInsts = 60000;
    cfg.apps = std::move(apps);
    cfg.process = tweakedParams(cfg.process, tweaks);
    return cfg;
}

GoldenFile
runOptimizerDecisions(const ExperimentTweaks &tweaks)
{
    GoldenFile golden("optimizer_decisions");
    ExperimentContext ctx(microConfig(7, 2, {"gzip", "swim"}, tweaks));
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::ALL);
    ExhaustiveOptimizer exh(caps, ctx.config().constraints);
    CoreOptimizer optimizer(exh, caps, ctx.config().constraints,
                            ctx.config().recovery);

    const auto apps = ctx.selectedApps();
    for (std::size_t chip = 0;
         chip < static_cast<std::size_t>(ctx.config().chips); ++chip) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const AppProfile &app = *apps[a];
            const std::size_t coreIdx = (chip + a) % 4;
            CoreSystemModel &core = ctx.coreModel(chip, coreIdx);
            core.setAppType(app.isFp);
            const AppCharacterization &chr =
                ctx.characterizations().get(app);
            for (std::size_t p = 0; p < chr.phases.size(); ++p) {
                const AdaptationResult ad =
                    optimizer.choose(core, chr.phases[p].chr, kThC);
                std::string tag = "c";
                tag.append(std::to_string(chip))
                    .append("_")
                    .append(app.name)
                    .append("_p")
                    .append(std::to_string(p));
                golden.addExact(tag + "_freq", ad.op.freq);
                golden.addExact(tag + "_perf", ad.predictedPerf);
                golden.addExact(tag + "_pe", ad.predictedPe);
                golden.addExact(tag + "_feasible",
                                ad.feasible ? 1.0 : 0.0);
                golden.addExact(tag + "_op_digest",
                                snapshotDigest(toSnapshot(ad)));
            }
        }
    }
    return golden;
}

// -- sweep_micro / paper_headline ---------------------------------------

void
addCellMetrics(GoldenFile &golden, const std::string &tag,
               const SweepCell &cell, double relEps)
{
    const auto add = [&](const std::string &name, double value) {
        if (relEps > 0.0)
            golden.addRelative(name, relEps, value);
        else
            golden.addExact(name, value);
    };
    add(tag + "_freq_rel", cell.freqRel);
    add(tag + "_perf_rel", cell.perfRel);
    add(tag + "_power_w", cell.powerW);
}

void
addOutcomeMetrics(GoldenFile &golden, const std::string &tag,
                  const OutcomeTally &outcomes)
{
    // Golden metric names, in RetuneOutcome order.
    constexpr const char *kNames[kNumRetuneOutcomes] = {
        "no_change", "low_freq", "error", "temp", "power"};
    for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
        golden.addExact(tag + "_out_" + kNames[o],
                        static_cast<double>(outcomes[o]));
}

GoldenFile
runSweepMicro(const ExperimentTweaks &tweaks)
{
    GoldenFile golden("sweep_micro");
    ExperimentContext ctx(microConfig(1, 3, {"gzip", "swim"}, tweaks));

    const std::pair<EnvironmentKind, const char *> envs[] = {
        {EnvironmentKind::TS, "ts"},
        {EnvironmentKind::TS_ASV_Q_FU, "pref"},
    };
    const std::pair<AdaptScheme, const char *> schemes[] = {
        {AdaptScheme::Static, "static"},
        {AdaptScheme::FuzzyDyn, "fuzzy"},
        {AdaptScheme::ExhDyn, "exh"},
    };
    std::vector<SweepKey> keys = {
        {EnvironmentKind::Baseline, AdaptScheme::Static},
        {EnvironmentKind::NoVar, AdaptScheme::Static},
    };
    for (const auto &env : envs)
        for (const auto &scheme : schemes)
            keys.push_back({env.first, scheme.first});
    const std::vector<SweepCell> cells = ctx.sweep(keys);

    addCellMetrics(golden, "baseline", cells[0], 0.0);
    addCellMetrics(golden, "novar", cells[1], 0.0);
    std::size_t c = 2;
    for (const auto &[env, envTag] : envs) {
        for (const auto &[scheme, schemeTag] : schemes) {
            const SweepCell &cell = cells[c++];
            const std::string tag =
                std::string(envTag) + "_" + schemeTag;
            addCellMetrics(golden, tag, cell, 0.0);
            if (scheme != AdaptScheme::Static)
                addOutcomeMetrics(golden, tag, cell.outcomes);
        }
    }
    return golden;
}

GoldenFile
runPaperHeadline(const ExperimentTweaks &tweaks)
{
    // Relative tolerance for the physics outputs: libm differences
    // across platforms may perturb the last few bits, but anything
    // above 1e-9 is a model change, not noise.
    constexpr double kRelEps = 1e-9;

    GoldenFile golden("paper_headline");
    ExperimentContext ctx(
        microConfig(1, 4, {"gzip", "mcf", "swim", "applu"}, tweaks));
    const std::vector<SweepCell> cells = ctx.sweep({
        {EnvironmentKind::Baseline, AdaptScheme::Static},
        {EnvironmentKind::NoVar, AdaptScheme::Static},
        {EnvironmentKind::TS_ASV_Q_FU, AdaptScheme::FuzzyDyn},
    });
    const SweepCell &baseline = cells[0];
    const SweepCell &novar = cells[1];
    const SweepCell &preferred = cells[2];

    addCellMetrics(golden, "baseline", baseline, kRelEps);
    addCellMetrics(golden, "novar", novar, kRelEps);
    addCellMetrics(golden, "preferred", preferred, kRelEps);
    golden.addRelative("freq_gain", kRelEps,
                       preferred.freqRel - baseline.freqRel);
    return golden;
}

// -- fig13_micro --------------------------------------------------------

GoldenFile
runFig13Micro(const ExperimentTweaks &tweaks)
{
    GoldenFile golden("fig13_micro");
    ExperimentContext ctx(
        microConfig(1, 3, {"gzip", "swim", "applu"}, tweaks));

    // The FU+Queue technique row of Figure 13 across the four voltage
    // environments.
    for (const VoltageEnv &env : fig13VoltageEnvs()) {
        const OutcomeTally outcomes =
            ctx.adaptPopulation(fig13Caps(env), AdaptScheme::FuzzyDyn);
        golden.addExact(std::string(env.tag) + "_invocations",
                        static_cast<double>(invocationCount(outcomes)));
        addOutcomeMetrics(golden, env.tag, outcomes);
    }
    return golden;
}

} // namespace

std::vector<std::string>
validationExperiments()
{
    return {"chip_population", "optimizer_decisions", "sweep_micro",
            "fig13_micro", "paper_headline"};
}

GoldenFile
runValidationExperiment(const std::string &name,
                        const ExperimentTweaks &tweaks)
{
    if (name == "chip_population")
        return runChipPopulation(tweaks);
    if (name == "optimizer_decisions")
        return runOptimizerDecisions(tweaks);
    if (name == "sweep_micro")
        return runSweepMicro(tweaks);
    if (name == "fig13_micro")
        return runFig13Micro(tweaks);
    if (name == "paper_headline")
        return runPaperHeadline(tweaks);
    EVAL_FATAL("unknown validation experiment: ", name);
}

} // namespace eval
