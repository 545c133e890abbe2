/**
 * @file
 * The runtime side of high-dimensional dynamic adaptation (Sec 4.3):
 *
 *  - RetuningController: after the (fuzzy or exhaustive) controller
 *    picks a configuration, sensors observe the true behaviour; on a
 *    violation the frequency backs off exponentially (1, 2, 4, 8
 *    steps), and when head-room remains it ramps up in single steps —
 *    all without re-running the controller (Sec 4.3.3).
 *  - DynamicController: phase-triggered adaptation with a saved-
 *    configuration table (Figure 6 timeline).
 *  - StaticQualifier: the Static scheme of Sec 6.2 — one conservative
 *    configuration chosen at qualification time with stress activity.
 */

#pragma once

#include <optional>

#include "core/optimizer.hh"
#include "phase/phase_table.hh"

namespace eval {

/** Outcome classification of one controller invocation (Figure 13). */
enum class RetuneOutcome { NoChange, LowFreq, Error, Temp, Power };

/** Number of RetuneOutcome values (Fig 13 outcome classes). */
constexpr std::size_t kNumRetuneOutcomes = 5;

const char *retuneOutcomeName(RetuneOutcome o);

/** Result of retuning one configuration against the real hardware. */
struct RetuneResult
{
    OperatingPoint op;          ///< final configuration
    RetuneOutcome outcome = RetuneOutcome::NoChange;
    unsigned steps = 0;         ///< frequency moves performed
    CoreEvaluation eval;        ///< state at the final configuration
};

/** Applies the retuning-cycle policy of Sec 4.3.3. */
class RetuningController
{
  public:
    RetuningController(const Constraints &constraints,
                       const KnobSpace &knobs, bool includeChecker);

    RetuneResult retune(const CoreSystemModel &core, OperatingPoint op,
                        const ActivityVector &act, double thC) const;

    /** Total power including the checker when present (what the
     *  core-wide power sensor reports). */
    double sensedPower(const CoreSystemModel &core,
                       const CoreEvaluation &ev, double freq) const;

  private:
    /** First violated constraint, if any (errors detected soonest). */
    std::optional<RetuneOutcome>
    violation(const CoreSystemModel &core, const CoreEvaluation &ev,
              double freq) const;

    Constraints constraints_;
    KnobSpace knobs_;
    bool includeChecker_;
};

/** What one phase adaptation produced. */
struct PhaseAdaptation
{
    OperatingPoint op;
    CoreEvaluation eval;
    RetuneOutcome outcome = RetuneOutcome::NoChange;
    bool reusedSaved = false;   ///< configuration came from the table
    unsigned retuneSteps = 0;
};

/**
 * Phase-triggered dynamic adaptation: on a new phase, run the
 * controller algorithm then retune; on a known phase, reuse the saved
 * configuration (Sec 4.3.3).
 */
class DynamicController
{
  public:
    /**
     * @param measurementNoiseRel relative sampling error of the 20us
     *        activity-profiling window (Figure 6): the controller
     *        decides from this imperfect snapshot while the hardware
     *        experiences the phase's true average behaviour — one of
     *        the reasons retuning exists.
     */
    DynamicController(SubsystemOptimizer &sub, const EnvCapabilities &caps,
                      const Constraints &constraints,
                      const RecoveryModel &recovery,
                      double measurementNoiseRel = 0.03,
                      std::uint64_t seed = 0x5EED);

    PhaseAdaptation adaptPhase(const CoreSystemModel &core,
                               std::size_t phaseId,
                               const PhaseCharacterization &phase,
                               double thC);

    /** Forget saved configurations (e.g. heat-sink change). */
    void invalidateSaved() { saved_.invalidate(); }

  private:
    CoreOptimizer optimizer_;
    RetuningController retuner_;
    PhaseTable<OperatingPoint> saved_;
    double measurementNoiseRel_;
    Rng rng_;
};

/** The Static scheme: one qualification-time configuration. */
class StaticQualifier
{
  public:
    StaticQualifier(SubsystemOptimizer &sub, const EnvCapabilities &caps,
                    const Constraints &constraints,
                    const RecoveryModel &recovery);

    /**
     * Choose the fixed configuration for this core using conservative
     * stress activity (@p stress), then verify against the physical
     * model and throttle until safe.
     */
    OperatingPoint qualify(const CoreSystemModel &core,
                           const PhaseCharacterization &stress,
                           double thC);

  private:
    CoreOptimizer optimizer_;
    RetuningController retuner_;
    EnvCapabilities caps_;
};

/** Conservative stress characterization used by StaticQualifier. */
PhaseCharacterization
stressCharacterization(const std::array<SubsystemPowerParams,
                                        kNumSubsystems> &power,
                       const RecoveryModel &recovery, double refFreqHz);

} // namespace eval

