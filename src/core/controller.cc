#include "core/controller.hh"

#include <algorithm>
#include <array>

#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

namespace {

/** Append one adaptation decision to the global trace and counters. */
void
recordDecision(std::size_t phaseId, double thC,
               const PhaseAdaptation &ad, double predictedPe,
               double predictedPerf)
{
    static Counter &adaptations =
        StatRegistry::global().counter("controller.adaptations");
    static Counter &reuses =
        StatRegistry::global().counter("controller.saved_reuse");
    static Counter &steps =
        StatRegistry::global().counter("controller.retune_steps");
    static const std::array<Counter *, kNumRetuneOutcomes> outcomes = [] {
        std::array<Counter *, kNumRetuneOutcomes> out{};
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
            out[o] = &StatRegistry::global().counter(
                std::string("controller.outcome.") +
                retuneOutcomeName(static_cast<RetuneOutcome>(o)));
        return out;
    }();
    adaptations.inc();
    if (ad.reusedSaved)
        reuses.inc();
    steps.inc(ad.retuneSteps);
    outcomes[static_cast<std::size_t>(ad.outcome)]->inc();

    DecisionTrace &trace = DecisionTrace::global();
    if (!trace.enabled())
        return;
    DecisionRecord r;
    r.phaseId = phaseId;
    r.reusedSaved = ad.reusedSaved;
    r.thC = thC;
    r.freqHz = ad.op.freq;
    double vdd = 0.0, vbb = 0.0;
    for (const SubsystemKnobs &k : ad.op.knobs) {
        vdd += k.vdd;
        vbb += k.vbb;
    }
    r.meanVddV = vdd / static_cast<double>(ad.op.knobs.size());
    r.meanVbbV = vbb / static_cast<double>(ad.op.knobs.size());
    r.smallQueue = ad.op.smallQueue;
    r.lowSlopeFu = ad.op.lowSlopeFu;
    r.predictedPe = predictedPe;
    r.realizedPe = ad.eval.pePerInstruction;
    r.predictedPerf = predictedPerf;
    r.powerW = ad.eval.totalPowerW;
    r.outcome = retuneOutcomeName(ad.outcome);
    r.retuneSteps = ad.retuneSteps;
    trace.record(std::move(r));
}

} // namespace

const char *
retuneOutcomeName(RetuneOutcome o)
{
    switch (o) {
      case RetuneOutcome::NoChange: return "NoChange";
      case RetuneOutcome::LowFreq:  return "LowFreq";
      case RetuneOutcome::Error:    return "Error";
      case RetuneOutcome::Temp:     return "Temp";
      case RetuneOutcome::Power:    return "Power";
    }
    return "?";
}

RetuningController::RetuningController(const Constraints &constraints,
                                       const KnobSpace &knobs,
                                       bool includeChecker)
    : constraints_(constraints), knobs_(knobs),
      includeChecker_(includeChecker)
{
}

double
RetuningController::sensedPower(const CoreSystemModel &core,
                                const CoreEvaluation &ev,
                                double freq) const
{
    double p = ev.totalPowerW;
    if (includeChecker_) {
        p += core.calibration().checkerPowerW *
             (freq / core.params().freqNominal);
    }
    return p;
}

std::optional<RetuneOutcome>
RetuningController::violation(const CoreSystemModel &core,
                              const CoreEvaluation &ev, double freq) const
{
    // The PE counter trips within microseconds, thermal/power sensors
    // within a thermal time constant (Sec 4.3.3) — so error
    // violations are detected (and classified) first.
    if (!ev.functional || ev.violatesError(constraints_))
        return RetuneOutcome::Error;
    if (ev.maxTempC > constraints_.tMaxC)
        return RetuneOutcome::Temp;
    if (sensedPower(core, ev, freq) > constraints_.pMaxW)
        return RetuneOutcome::Power;
    return std::nullopt;
}

RetuneResult
RetuningController::retune(const CoreSystemModel &core, OperatingPoint op,
                           const ActivityVector &act, double thC) const
{
    RetuneResult res;
    CoreEvaluation ev = core.evaluate(op, act, thC);
    const auto firstViolation = violation(core, ev, op.freq);

    if (firstViolation) {
        // Exponential back-off: 1, 2, 4, 8 steps (then repeated 8s),
        // without re-running the controller.
        res.outcome = *firstViolation;
        unsigned stepCount = 1;
        while (op.freq > knobs_.freq.lo()) {
            op.freq = std::max(knobs_.freq.lo(),
                               op.freq - stepCount * knobs_.freq.step());
            op.freq = knobs_.freq.quantize(op.freq);
            ++res.steps;
            ev = core.evaluate(op, act, thC);
            if (!violation(core, ev, op.freq))
                break;
            stepCount = std::min(stepCount * 2, 8u);
        }
        // Ramp back up in single steps to just below the violation
        // point (the back-off may have overshot).
        while (op.freq < knobs_.freq.hi()) {
            OperatingPoint probe = op;
            probe.freq = knobs_.freq.quantize(op.freq +
                                              knobs_.freq.step());
            const CoreEvaluation probeEv = core.evaluate(probe, act, thC);
            if (violation(core, probeEv, probe.freq))
                break;
            op = probe;
            ev = probeEv;
            ++res.steps;
        }
    } else {
        // No violation: probe upward.  If the very first raise fails,
        // the controller's pick was (near) optimal: NoChange.
        unsigned raises = 0;
        while (op.freq < knobs_.freq.hi()) {
            OperatingPoint probe = op;
            probe.freq = knobs_.freq.quantize(op.freq +
                                              knobs_.freq.step());
            const CoreEvaluation probeEv = core.evaluate(probe, act, thC);
            if (violation(core, probeEv, probe.freq))
                break;
            op = probe;
            ev = probeEv;
            ++raises;
            ++res.steps;
        }
        res.outcome = raises == 0 ? RetuneOutcome::NoChange
                                  : RetuneOutcome::LowFreq;
    }

    res.op = op;
    res.eval = ev;
    return res;
}

DynamicController::DynamicController(SubsystemOptimizer &sub,
                                     const EnvCapabilities &caps,
                                     const Constraints &constraints,
                                     const RecoveryModel &recovery,
                                     double measurementNoiseRel,
                                     std::uint64_t seed)
    : optimizer_(sub, caps, constraints, recovery),
      retuner_(constraints, caps.knobSpace(), caps.timingSpec),
      measurementNoiseRel_(measurementNoiseRel), rng_(seed)
{
}

PhaseAdaptation
DynamicController::adaptPhase(const CoreSystemModel &core,
                              std::size_t phaseId,
                              const PhaseCharacterization &phase,
                              double thC)
{
    ScopedSpan span("controller.adapt_phase");

    PhaseAdaptation out;

    if (auto savedOp = saved_.lookup(phaseId)) {
        // Known phase: reuse the stored configuration (Figure 6).  The
        // sensors still guard it; a violation (e.g. different TH)
        // triggers retuning and the table is refreshed.
        const RetuneResult res = retuner_.retune(core, *savedOp,
                                                 phase.act, thC);
        out.op = res.op;
        out.eval = res.eval;
        out.outcome = res.outcome;
        out.retuneSteps = res.steps;
        out.reusedSaved = true;
        saved_.save(phaseId, res.op);
        // The "prediction" of a reused configuration is the table's
        // expectation that it still holds: the realized state itself.
        recordDecision(phaseId, thC, out, res.eval.pePerInstruction,
                       0.0);
        return out;
    }

    // The controller decides from the 20us profiling snapshot, which
    // samples the phase's activity imperfectly; retuning then faces
    // the phase's true behaviour.
    PhaseCharacterization measured = phase;
    if (measurementNoiseRel_ > 0.0) {
        for (double &a : measured.act.alpha)
            a = std::max(0.0,
                         a * (1.0 + rng_.gaussian(0.0,
                                                  measurementNoiseRel_)));
        for (double &r : measured.act.rho)
            r = std::max(0.0,
                         r * (1.0 + rng_.gaussian(0.0,
                                                  measurementNoiseRel_)));
    }

    const AdaptationResult choice = optimizer_.choose(core, measured, thC);
    const RetuneResult res = retuner_.retune(core, choice.op, phase.act,
                                             thC);
    out.op = res.op;
    out.eval = res.eval;
    out.outcome = res.outcome;
    out.retuneSteps = res.steps;
    saved_.save(phaseId, res.op);
    recordDecision(phaseId, thC, out, choice.predictedPe,
                   choice.predictedPerf);
    return out;
}

StaticQualifier::StaticQualifier(SubsystemOptimizer &sub,
                                 const EnvCapabilities &caps,
                                 const Constraints &constraints,
                                 const RecoveryModel &recovery)
    : optimizer_(sub, caps, constraints, recovery),
      retuner_(constraints, caps.knobSpace(), caps.timingSpec),
      caps_(caps)
{
}

OperatingPoint
StaticQualifier::qualify(const CoreSystemModel &core,
                         const PhaseCharacterization &stress, double thC)
{
    const AdaptationResult choice = optimizer_.choose(core, stress, thC);
    // The static configuration must be safe under stress conditions;
    // retune against them once and freeze the result.
    const RetuneResult res = retuner_.retune(core, choice.op, stress.act,
                                             thC);
    return res.op;
}

PhaseCharacterization
stressCharacterization(
    const std::array<SubsystemPowerParams, kNumSubsystems> &power,
    const RecoveryModel &recovery, double refFreqHz)
{
    PhaseCharacterization stress;
    stress.isFp = false;

    // Worst-case activity: every subsystem at 1.4x its reference rate,
    // with conservative accesses-per-instruction.
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        stress.act.alpha[i] = power[i].alphaRef * 1.4;
        stress.act.rho[i] = stress.act.alpha[i] * 1.2;
    }

    PerfInputs in;
    in.cpiComp = 0.9;
    in.missesPerInst = 1.5e-3;
    in.memPenaltySec = 150.0 / refFreqHz;
    in.recoveryPenaltyCycles = recovery.penaltyCycles;
    stress.perfFull = in;
    in.cpiComp = 0.95;   // 3/4 queue costs some IPC
    stress.perfSmall = in;
    return stress;
}

} // namespace eval
