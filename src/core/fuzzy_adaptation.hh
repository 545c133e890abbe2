/**
 * @file
 * Machine-learning implementation of the Freq and Power algorithms
 * (Sec 4.3.1): per-subsystem fuzzy controllers, trained at
 * manufacturer test time by running the Exhaustive optimizer on a
 * software model of the *specific chip* (Sec 4.3.1 "populating the
 * FCs"), then deployed as a SubsystemOptimizer that answers in
 * microseconds.
 *
 * Controller inputs follow Figure 3: {TH, Rth, Kdyn, Ksta, Vt0,
 * alpha_f} plus one configuration bit for subsystems with an alternate
 * implementation (low-slope FU / resized queue — the paper runs the
 * Freq algorithm once per configuration, which is equivalent to the
 * controller knowing the configuration).  The Power-algorithm
 * controllers additionally take fcore and output Vdd and Vbb.  Four of
 * the inputs are per-subsystem constants; they are kept as inputs for
 * fidelity with the paper even though each trained FC sees them fixed.
 */

#pragma once

#include <array>
#include <memory>

#include "core/optimizer.hh"
#include "fuzzy/fuzzy_controller.hh"

namespace eval {

/** Training setup for one chip's controller set. */
struct FuzzyTrainingConfig
{
    std::size_t rules = 25;           ///< Figure 7(a)
    /**
     * Training examples per FC.  The paper uses 10,000 on the
     * manufacturer's tester; the default here keeps full-suite bench
     * runs tractable and EVAL_FC_EXAMPLES restores the paper setting.
     */
    std::size_t examplesPerFc = 400;
    double learningRate = 0.04;       ///< Appendix A
    std::uint64_t seed = 0x7E57ED;
};

/**
 * The trained fuzzy controllers of one core on one chip, for one
 * knob-capability combination (ASV/ABB availability).
 */
class CoreFuzzySystem
{
  public:
    CoreFuzzySystem(const CoreSystemModel &core,
                    const EnvCapabilities &caps,
                    const Constraints &constraints,
                    const FuzzyTrainingConfig &cfg);

    /** Generate examples with Exhaustive on this core and train. */
    void train();

    bool trained() const { return trained_; }
    const EnvCapabilities &caps() const { return caps_; }

    /** Freq-algorithm query: fmax prediction in Hz. */
    double predictFmax(SubsystemId id, double thC, double alphaF,
                       bool altConfig) const;

    /** Power-algorithm query: Vdd/Vbb prediction at fcore. */
    SubsystemKnobs predictKnobs(SubsystemId id, double thC, double alphaF,
                                bool altConfig, double fcore) const;

  private:
    /** Figure 3's inputs: kFreqInputs entries for the Freq FC; the
     *  Power FCs append fcore as entry kFreqInputs. */
    static constexpr std::size_t kFreqInputs = 7;
    static constexpr std::size_t kPowerInputs = kFreqInputs + 1;
    static_assert(kPowerInputs <= kMaxFcInputs);

    FcInput freqInput(SubsystemId id, double thC, double alphaF,
                      bool altConfig) const;

    const CoreSystemModel &core_;
    EnvCapabilities caps_;
    Constraints constraints_;
    FuzzyTrainingConfig cfg_;
    bool trained_ = false;

    std::array<std::unique_ptr<TrainedController>, kNumSubsystems>
        fmaxFc_;
    std::array<std::unique_ptr<TrainedController>, kNumSubsystems>
        vddFc_;
    std::array<std::unique_ptr<TrainedController>, kNumSubsystems>
        vbbFc_;
};

/** SubsystemOptimizer backed by a chip's trained controllers. */
class FuzzyOptimizer : public SubsystemOptimizer
{
  public:
    explicit FuzzyOptimizer(const CoreFuzzySystem &system);

    double maxFrequency(const CoreSystemModel &core, SubsystemId id,
                        bool useAlternate, double alphaF,
                        double thC) override;

    std::optional<SubsystemKnobs>
    minimizePower(const CoreSystemModel &core, SubsystemId id,
                  bool useAlternate, double fcore, double alphaF,
                  double thC) override;

  private:
    const CoreFuzzySystem &system_;
    KnobSpace knobs_;
};

} // namespace eval

