#include "core/fuzzy_adaptation.hh"

#include "stats/stat_registry.hh"
#include "trace/span_tracer.hh"
#include "util/config.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

CoreFuzzySystem::CoreFuzzySystem(const CoreSystemModel &core,
                                 const EnvCapabilities &caps,
                                 const Constraints &constraints,
                                 const FuzzyTrainingConfig &cfg)
    : core_(core), caps_(caps), constraints_(constraints), cfg_(cfg)
{
}

FcInput
CoreFuzzySystem::freqInput(SubsystemId id, double thC, double alphaF,
                           bool altConfig) const
{
    const SubsystemModel &sub = core_.subsystem(id);
    return {thC,
            core_.thermal().rth(id),
            sub.power().kdyn,
            sub.power().ksta,
            sub.vt0Measured(),
            alphaF,
            altConfig ? 1.0 : 0.0,
            0.0};
}

void
CoreFuzzySystem::train()
{
    ScopedSpan span("fuzzy.train");
    StatRegistry::global().counter("fuzzy.trainings").inc();

    ExhaustiveOptimizer exhaustive(caps_, constraints_);
    const KnobSpace knobs = caps_.knobSpace();
    Rng rng(cfg_.seed);

    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const SubsystemModel &sub = core_.subsystem(id);
        Rng subRng = rng.fork(0x5B + i);

        // Inputs are kept whole (FcInput); the Freq FC reads the first
        // kFreqInputs entries of each, the Power FCs kPowerInputs.
        std::vector<FcInput> fmaxIn, vddIn, vbbIn;
        std::vector<double> fmaxOut, vddOut, vbbOut;
        fmaxIn.reserve(cfg_.examplesPerFc);
        if (caps_.asv)
            vddIn.reserve(cfg_.examplesPerFc);
        if (caps_.abb)
            vbbIn.reserve(cfg_.examplesPerFc);

        for (std::size_t k = 0; k < cfg_.examplesPerFc; ++k) {
            const double thC = subRng.uniform(45.0, 70.0);
            const double alphaF =
                sub.power().alphaRef * subRng.uniform(0.1, 2.0);
            const bool alt = sub.hasAlternate() && subRng.bernoulli(0.5);

            const double fmax = clamp(
                exhaustive.maxFrequency(core_, id, alt, alphaF, thC),
                knobs.freq.lo(), knobs.freq.hi());
            FcInput in = freqInput(id, thC, alphaF, alt);
            fmaxIn.push_back(in);
            fmaxOut.push_back(fmax);

            if (caps_.asv || caps_.abb) {
                // Deployment queries the Power algorithm at fcore just
                // below the chosen core frequency, so bias training
                // toward the high end of [lo, fmax].
                const double u = subRng.uniform();
                const double fcore = knobs.freq.quantizeDown(
                    fmax - (fmax - knobs.freq.lo()) * u * u);
                const auto best = exhaustive.minimizePower(
                    core_, id, alt, fcore, alphaF, thC);
                if (best) {
                    in[kFreqInputs] = fcore;
                    if (caps_.asv) {
                        vddIn.push_back(in);
                        vddOut.push_back(best->vdd);
                    }
                    if (caps_.abb) {
                        vbbIn.push_back(in);
                        vbbOut.push_back(best->vbb);
                    }
                }
            }
        }

        EVAL_ASSERT(fmaxIn.size() >= cfg_.rules,
                    "too few training examples for the rule base");
        Rng trainRng = subRng.fork(0x7124);

        fmaxFc_[i] =
            std::make_unique<TrainedController>(cfg_.rules, kFreqInputs);
        fmaxFc_[i]->train(fmaxIn, fmaxOut, cfg_.learningRate, trainRng);

        if (caps_.asv && vddIn.size() >= cfg_.rules) {
            vddFc_[i] = std::make_unique<TrainedController>(cfg_.rules,
                                                            kPowerInputs);
            vddFc_[i]->train(vddIn, vddOut, cfg_.learningRate, trainRng);
        }
        if (caps_.abb && vbbIn.size() >= cfg_.rules) {
            vbbFc_[i] = std::make_unique<TrainedController>(cfg_.rules,
                                                            kPowerInputs);
            vbbFc_[i]->train(vbbIn, vbbOut, cfg_.learningRate, trainRng);
        }
    }
    trained_ = true;
}

double
CoreFuzzySystem::predictFmax(SubsystemId id, double thC, double alphaF,
                             bool altConfig) const
{
    EVAL_ASSERT(trained_, "fuzzy system queried before training");
    static Counter &inferences =
        StatRegistry::global().counter("fuzzy.inferences");
    ScopedSpan span("fuzzy.predict_fmax");
    inferences.inc();
    const FcInput in = freqInput(id, thC, alphaF, altConfig);
    return fmaxFc_[static_cast<std::size_t>(id)]->predict(
        {in.data(), kFreqInputs});
}

SubsystemKnobs
CoreFuzzySystem::predictKnobs(SubsystemId id, double thC, double alphaF,
                              bool altConfig, double fcore) const
{
    EVAL_ASSERT(trained_, "fuzzy system queried before training");
    static Counter &inferences =
        StatRegistry::global().counter("fuzzy.inferences");
    ScopedSpan span("fuzzy.predict_knobs");
    inferences.inc();
    SubsystemKnobs k{core_.params().vddNominal, 0.0};
    FcInput in = freqInput(id, thC, alphaF, altConfig);
    in[kFreqInputs] = fcore;
    const std::span<const double> x{in.data(), kPowerInputs};

    const auto &vddFc = vddFc_[static_cast<std::size_t>(id)];
    if (caps_.asv && vddFc)
        k.vdd = vddFc->predict(x);
    const auto &vbbFc = vbbFc_[static_cast<std::size_t>(id)];
    if (caps_.abb && vbbFc)
        k.vbb = vbbFc->predict(x);
    return k;
}

FuzzyOptimizer::FuzzyOptimizer(const CoreFuzzySystem &system)
    : system_(system), knobs_(system.caps().knobSpace())
{
    EVAL_ASSERT(system.trained(), "fuzzy optimizer needs a trained system");
}

double
FuzzyOptimizer::maxFrequency(const CoreSystemModel &core, SubsystemId id,
                             bool useAlternate, double alphaF, double thC)
{
    (void)core;
    // Deployment guardband: half a grid step down.  The FC's residual
    // is roughly symmetric, and overshooting a memory subsystem's
    // error cliff costs a sensor trip plus retuning; biasing low lets
    // the cheap upward retuning probes recover the head-room instead.
    const double raw = system_.predictFmax(id, thC, alphaF, useAlternate) -
                       0.5 * knobs_.freq.step();
    return knobs_.freq.quantizeDown(
        clamp(raw, knobs_.freq.lo(), knobs_.freq.hi()));
}

std::optional<SubsystemKnobs>
FuzzyOptimizer::minimizePower(const CoreSystemModel &core, SubsystemId id,
                              bool useAlternate, double fcore,
                              double alphaF, double thC)
{
    (void)core;
    SubsystemKnobs k =
        system_.predictKnobs(id, thC, alphaF, useAlternate, fcore);
    // Deployment guardbands: undershooting Vdd/Vbb on a critical
    // subsystem trips the PE sensor and forfeits frequency in
    // retuning, while overshooting merely wastes some power (which
    // the power sensor polices).  Round the supply up by half a step
    // and bias the body bias forward by one step before quantizing.
    k.vdd = knobs_.vdd.quantizeUp(
        clamp(k.vdd + 0.5 * knobs_.vdd.step(), knobs_.vdd.lo(),
              knobs_.vdd.hi()));
    // The Vdd and Vbb controllers predict independently, so their
    // errors compound when both knobs exist; the body bias carries a
    // correspondingly larger forward guardband.
    k.vbb += (system_.caps().asv ? 2.0 : 1.0) * knobs_.vbb.step();
    k.vbb = system_.caps().abb
                ? knobs_.vbb.quantize(clamp(k.vbb, knobs_.vbb.lo(),
                                            knobs_.vbb.hi()))
                : 0.0;
    return k;
}

} // namespace eval
