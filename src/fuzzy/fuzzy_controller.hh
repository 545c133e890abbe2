/**
 * @file
 * Fuzzy controller (Appendix A of the paper).
 *
 * The controller holds n rules over m input variables: matrices mu and
 * sigma (n x m) and an output vector y.  Deployment (Eqs 10-12):
 *
 *   W_ij = exp(-((x_j - mu_ij) / sigma_ij)^2)
 *   W_i  = prod_j W_ij
 *   z    = sum_i W_i y_i / sum_i W_i
 *
 * Training seeds the first n rules directly from the first n examples
 * (mu_ij = x_ij, sigma_ij random < 0.1, y_i = output), then performs
 * gradient descent on the squared error with learning rate alpha
 * (Eq 13; alpha = 0.04 in the paper).
 *
 * The controller operates in normalized coordinates; InputNormalizer
 * maps raw physical inputs/outputs into [0, 1].
 */

#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "util/random.hh"

namespace eval {

/** Widest controller input: Figure 3's seven inputs plus fcore. */
constexpr std::size_t kMaxFcInputs = 8;

/** Most rules a controller may hold (Figure 7(a) sweeps up to 49);
 *  bounds the gradient step's stack scratch. */
constexpr std::size_t kMaxFcRules = 64;

/** A controller input vector, raw or normalized; only its first
 *  dims() entries are valid. */
using FcInput = std::array<double, kMaxFcInputs>;

/** Per-dimension affine normalization to [0, 1] (at most
 *  kMaxFcInputs dimensions, held inline). */
class InputNormalizer
{
  public:
    InputNormalizer() = default;

    /** Fit ranges from raw vectors whose first @p dims entries are
     *  valid. */
    void fit(std::span<const FcInput> samples, std::size_t dims);

    /** Fit a scalar range. */
    void fitScalar(const std::vector<double> &samples);

    FcInput normalize(std::span<const double> raw) const;
    double normalizeScalar(double raw) const;
    double denormalizeScalar(double normalized) const;

    std::size_t dims() const { return dims_; }

  private:
    std::size_t dims_ = 0;
    FcInput lo_{};
    FcInput hi_{};
};

/**
 * The rule-based controller itself (normalized space).  The rule base
 * is sized once at construction; infer and train allocate nothing.
 */
class FuzzyController
{
  public:
    FuzzyController(std::size_t numRules, std::size_t numInputs);

    /** Eqs 10-12. Falls back to the nearest rule when all memberships
     *  underflow (query far outside the training support). */
    double infer(std::span<const double> x) const;

    /**
     * Present one training example.  The first numRules examples seed
     * the rule base; later examples run one Eq 13 gradient step on
     * every rule.
     */
    void train(std::span<const double> x, double y, double learningRate,
               Rng &rng);

    bool fullySeeded() const { return seeded_ >= rules_; }
    std::size_t numRules() const { return rules_; }
    std::size_t numInputs() const { return inputs_; }

    /** Approximate data footprint in bytes (paper: ~120 KB total). */
    std::size_t footprintBytes() const;

    /** Plain-text image of the rule base (exact to 17 digits). */
    void save(std::ostream &os) const;

  private:
    double membership(std::size_t rule, std::span<const double> x) const;

    std::size_t rules_;
    std::size_t inputs_;
    std::size_t seeded_ = 0;
    std::vector<double> mu_;      ///< [rule * inputs + j]
    std::vector<double> sigma_;   ///< [rule * inputs + j]
    std::vector<double> y_;       ///< [rule]
};

/** A trained controller bundled with its raw-unit normalizers. */
class TrainedController
{
  public:
    TrainedController(std::size_t numRules, std::size_t numInputs);

    /**
     * Train on a raw-unit dataset: fits the normalizers, then
     * normalizes each example once and feeds it through
     * FuzzyController::train.
     *
     * @param inputs  raw input vectors; the first numInputs entries
     *                of each are read
     * @param outputs raw outputs (same length)
     * @param learningRate Eq 13 alpha
     * @param rng     sigma-seeding stream
     */
    void train(std::span<const FcInput> inputs,
               const std::vector<double> &outputs, double learningRate,
               Rng &rng);

    /** Predict a raw-unit output from a raw-unit input vector. */
    double predict(std::span<const double> rawInput) const;

    bool trained() const { return trained_; }
    const FuzzyController &controller() const { return fc_; }

  private:
    FuzzyController fc_;
    InputNormalizer inputNorm_;
    InputNormalizer outputNorm_;
    bool trained_ = false;
};

} // namespace eval

