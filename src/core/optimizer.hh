/**
 * @file
 * The Freq and Power algorithms of Sec 4.2/4.3.1, and the whole-core
 * optimizer that composes them with the FU-replication and issue-queue
 * decision rules.
 *
 * SubsystemOptimizer is the interface both implementations share:
 * ExhaustiveOptimizer scans the discrete (f, Vdd, Vbb) space against
 * the physical models; FuzzyOptimizer (fuzzy_adaptation.hh) answers
 * the same queries from trained fuzzy controllers in microseconds.
 */

#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/eval_params.hh"
#include "core/perf_model.hh"
#include "core/subsystem_model.hh"
#include "power/knobs.hh"

namespace eval {

/** Which techniques an environment provides (Table 1). */
struct EnvCapabilities
{
    bool timingSpec = false;     ///< Diva checker present
    bool asv = false;            ///< per-subsystem Vdd
    bool abb = false;            ///< per-subsystem Vbb
    bool queueResize = false;    ///< 3/4 issue queues
    bool fuReplication = false;  ///< low-slope FU replicas

    KnobSpace knobSpace() const;
};

/** Per-phase characterization consumed by the optimizer. */
struct PhaseCharacterization
{
    bool isFp = false;
    ActivityVector act;
    PerfInputs perfFull;    ///< Eq 5 inputs with the full queue
    PerfInputs perfSmall;   ///< Eq 5 inputs with the 3/4 queue
};

/**
 * Per-subsystem query interface (the boxes of Figure 3).  Both
 * queries are pure functions of their arguments, which is what lets
 * CoreOptimizer::choose ask each Freq question once and share the
 * answer between the two queue configurations.
 */
class SubsystemOptimizer
{
  public:
    virtual ~SubsystemOptimizer() = default;

    /**
     * Freq algorithm: the highest frequency at which subsystem @p id
     * can run (using any available Vdd/Vbb) without exceeding TMAX or
     * its share PEMAX/n of the error budget.
     *
     * @return the chosen frequency in Hz (knob-grid value), or 0 when
     *         no setting is feasible.
     */
    virtual double maxFrequency(const CoreSystemModel &core,
                                SubsystemId id, bool useAlternate,
                                double alphaF, double thC) = 0;

    /**
     * Power algorithm: the Vdd/Vbb that minimizes the subsystem's
     * power at @p fcore while meeting TMAX and PEMAX/n.
     */
    virtual std::optional<SubsystemKnobs>
    minimizePower(const CoreSystemModel &core, SubsystemId id,
                  bool useAlternate, double fcore, double alphaF,
                  double thC) = 0;
};

/** Exhaustive implementation (Sec 4.3.1). */
class ExhaustiveOptimizer : public SubsystemOptimizer
{
  public:
    ExhaustiveOptimizer(const EnvCapabilities &caps,
                        const Constraints &constraints);

    double maxFrequency(const CoreSystemModel &core, SubsystemId id,
                        bool useAlternate, double alphaF,
                        double thC) override;

    std::optional<SubsystemKnobs>
    minimizePower(const CoreSystemModel &core, SubsystemId id,
                  bool useAlternate, double fcore, double alphaF,
                  double thC) override;

    const KnobSpace &knobs() const { return knobs_; }

  private:
    /** The discrete Vdd/Vbb scan lists, hoisted out of the per-query
     *  loops (vddCandidates/vbbCandidates allocate on every call, and
     *  feasibleAt runs once per binary-search probe). */
    struct KnobCandidates
    {
        double vddNominal = 0.0;
        std::vector<double> vdds;
        std::vector<double> vbbs;
    };

    /** Lazily built, rebuilt only if @p vddNominal changes (it is a
     *  process constant, so in practice built once).  Returned shared
     *  so concurrent per-subsystem queries stay safe. */
    std::shared_ptr<const KnobCandidates> candidates(double vddNominal);

    KnobSpace knobs_;
    Constraints constraints_;
    std::mutex candMutex_;
    std::shared_ptr<const KnobCandidates> cand_;
};

/**
 * Convert the per-subsystem error-rate budget PEMAX/n (per
 * instruction) into a per-access budget using the activity proxy
 * alphaF (rho ~= alphaF * CPI with CPI ~ 1); Sec 4.2 sets this
 * conservatively, and the retuning cycles absorb the residual.
 */
double perAccessErrorBudget(const Constraints &c, double alphaF);

/** Outcome of a whole-core optimization. */
struct AdaptationResult
{
    OperatingPoint op;
    bool feasible = true;
    double predictedPerf = 0.0;   ///< instructions/second via Eq 5
    double predictedPe = 0.0;     ///< err/instr expected at `op`
    std::array<double, kNumSubsystems> fmax{};   ///< diagnostics
};

/**
 * Whole-core controller algorithm (Figure 3 + Figure 4 + the queue
 * rule of Sec 4.2 + the PMAX check).
 */
class CoreOptimizer
{
  public:
    CoreOptimizer(SubsystemOptimizer &sub, const EnvCapabilities &caps,
                  const Constraints &constraints,
                  const RecoveryModel &recovery);

    AdaptationResult choose(const CoreSystemModel &core,
                            const PhaseCharacterization &phase,
                            double thC);

  private:
    /** One queue configuration's Freq answer after the Figure 4 rule. */
    struct ConfigFreq
    {
        double raw = 0.0;     ///< core frequency (min over subsystems)
        bool lowSlope = false;
        std::array<double, kNumSubsystems> fmax{};
    };

    /** Fold the Figure 4 low-slope FU rule over one configuration's
     *  per-subsystem answers (@p fmax holds the normal FU's) and take
     *  the core frequency. */
    ConfigFreq foldFigure4(const CoreSystemModel &core,
                           const std::array<double, kNumSubsystems> &fmax,
                           double fLowSlope) const;

    SubsystemOptimizer &sub_;
    EnvCapabilities caps_;
    Constraints constraints_;
    RecoveryModel recovery_;
    KnobSpace knobs_;
};

} // namespace eval

