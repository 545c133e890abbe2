#include "cmp/cmp_system.hh"

#include <algorithm>

#include "core/perf_model.hh"
#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

WorkloadMix
intHeavyMix()
{
    return {&appByName("gzip"), &appByName("crafty"), &appByName("gcc"),
            &appByName("bzip2")};
}

WorkloadMix
fpHeavyMix()
{
    return {&appByName("swim"), &appByName("lucas"), &appByName("applu"),
            &appByName("sixtrack")};
}

WorkloadMix
mixedMix()
{
    return {&appByName("gzip"), &appByName("swim"), &appByName("crafty"),
            &appByName("equake")};
}

WorkloadMix
memBoundMix()
{
    return {&appByName("mcf"), &appByName("art"), &appByName("swim"),
            &appByName("equake")};
}

CmpSystem::CmpSystem(ExperimentContext &ctx, std::size_t chipIndex)
    : ctx_(ctx), chipIndex_(chipIndex)
{
    EVAL_ASSERT(chipIndex < ctx.numChips(), "chip index out of range");
}

CmpSystem::CoreOutcome
CmpSystem::runCoreAtTh(std::size_t core, const AppProfile &app,
                       EnvironmentKind env, AdaptScheme scheme,
                       double thC, unsigned throttleSteps)
{
    const ExperimentConfig &cfg = ctx_.config();
    CoreSystemModel &model = ctx_.coreModel(chipIndex_, core);
    model.setAppType(app.isFp);
    const AppCharacterization &chr = ctx_.characterizations().get(app);
    const double novar = ctx_.novarPerf(app);
    const KnobSpace grid = environmentCaps(env).knobSpace();

    CoreOutcome out;
    double wSum = 0.0;

    if (env == EnvironmentKind::Baseline ||
        env == EnvironmentKind::NoVar) {
        // Non-adaptive references: fixed frequency, no checker.
        OperatingPoint op = nominalOperatingPoint(cfg.process);
        if (env == EnvironmentKind::Baseline) {
            op.freq = grid.freq.quantizeDown(model.baselineFrequency());
        }
        for (const PhaseData &phase : chr.phases) {
            const CoreEvaluation ev =
                model.evaluate(op, phase.chr.act, thC);
            const double perf =
                performance(op.freq, 0.0, phase.chr.perfFull);
            wSum += phase.weight;
            out.freq += phase.weight * op.freq;
            out.perf += phase.weight * perf;
            out.power += phase.weight * ev.totalPowerW;
        }
    } else {
        const EnvCapabilities caps = environmentCaps(env);
        std::unique_ptr<ExhaustiveOptimizer> exh;
        std::unique_ptr<FuzzyOptimizer> fuzzy;
        SubsystemOptimizer *sub = nullptr;
        if (scheme == AdaptScheme::FuzzyDyn) {
            fuzzy = std::make_unique<FuzzyOptimizer>(
                ctx_.coreFuzzy(chipIndex_, core, caps));
            sub = fuzzy.get();
        } else {
            exh = std::make_unique<ExhaustiveOptimizer>(caps,
                                                        cfg.constraints);
            sub = exh.get();
        }
        DynamicController ctl(*sub, caps, cfg.constraints, cfg.recovery);

        for (std::size_t p = 0; p < chr.phases.size(); ++p) {
            const PhaseData &phase = chr.phases[p];
            PhaseAdaptation ad =
                ctl.adaptPhase(model, p, phase.chr, thC);
            // Chip-level throttle: back off the core's clock when the
            // package is saturated (TH_MAX enforcement).
            if (throttleSteps > 0) {
                OperatingPoint op = ad.op;
                op.freq = std::max(grid.freq.lo(),
                                   grid.freq.quantizeDown(
                                       op.freq - throttleSteps *
                                                     grid.freq.step()));
                ad.op = op;
                ad.eval = model.evaluate(op, phase.chr.act, thC);
            }
            const PerfInputs &in = ad.op.smallQueue
                                       ? phase.chr.perfSmall
                                       : phase.chr.perfFull;
            const double perf = performance(
                ad.op.freq, ad.eval.pePerInstruction, in);
            const double power =
                ad.eval.totalPowerW +
                cfg.powerCal.checkerPowerW *
                    (ad.op.freq / cfg.process.freqNominal);
            wSum += phase.weight;
            out.freq += phase.weight * ad.op.freq;
            out.perf += phase.weight * perf;
            out.power += phase.weight * power;
        }
    }

    out.freq /= wSum;
    out.perf = out.perf / wSum / novar;
    out.power /= wSum;
    return out;
}

CmpRunResult
CmpSystem::runMix(const WorkloadMix &mix, EnvironmentKind env,
                  AdaptScheme scheme)
{
    static Counter &iterations =
        StatRegistry::global().counter("chip.thermal.iterations");
    static Counter &throttles =
        StatRegistry::global().counter("chip.thermal.throttle_steps");
    ScopedSpan span("cmp.run_mix");
    StatRegistry::global().counter("chip.mix_runs").inc();

    const ExperimentConfig &cfg = ctx_.config();
    CmpRunResult result;
    double thC = 60.0;
    unsigned throttle = 0;

    // Outer loop: per-core adaptation at the current TH, then update
    // TH from the chip's total power; throttle globally if TH_MAX is
    // exceeded even at the fixed point.  The budget covers the worst
    // case of stepping through the full throttle range.
    for (int iter = 0; iter < 120; ++iter) {
        iterations.inc();
        double totalPower = 0.0;
        std::array<CoreOutcome, 4> outcomes;
        for (std::size_t core = 0; core < 4; ++core) {
            DecisionTrace::global().setContext(
                static_cast<int>(chipIndex_), static_cast<int>(core));
            outcomes[core] = runCoreAtTh(core, *mix[core], env, scheme,
                                         thC, throttle);
            totalPower += outcomes[core].power;
        }

        const double thNext = heatsink_.tempC(totalPower);
        const bool converged = std::abs(thNext - thC) < 0.5;
        thC = thNext;

        if (converged || iter == 119) {
            if (thC > cfg.constraints.thMaxC + 0.25 && throttle < 16) {
                ++throttle;
                ++result.throttleSteps;
                throttles.inc();
                continue;   // re-run cooler
            }
            for (std::size_t core = 0; core < 4; ++core) {
                result.coreFreqRel[core] =
                    outcomes[core].freq / cfg.process.freqNominal;
                result.corePerfRel[core] = outcomes[core].perf;
                result.corePowerW[core] = outcomes[core].power;
                result.throughputRel += outcomes[core].perf / 4.0;
            }
            result.chipPowerW = totalPower;
            result.heatsinkC = thC;
            return result;
        }
    }
    EVAL_PANIC("CMP thermal loop failed to converge");
}

} // namespace eval
