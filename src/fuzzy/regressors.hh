/**
 * @file
 * Alternative learned controllers, for the Appendix A comparison: the
 * paper argues fuzzy controllers beat perceptrons (which cannot model
 * outputs that are non-linear in the inputs) and table/tree approaches
 * (which need more states and memory).  These baselines let the claim
 * be measured (`eval_paper controllers`).
 *
 * Both operate in normalized coordinates like FuzzyController and are
 * trained online, one example at a time.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eval {

/** Common interface for online-trained scalar regressors. */
class Regressor
{
  public:
    virtual ~Regressor() = default;

    /** Present one training example (normalized input, output). */
    virtual void train(const std::vector<double> &x, double y) = 0;

    /** Predict the output for a normalized input. */
    virtual double predict(const std::vector<double> &x) const = 0;

    /** Approximate state size in bytes. */
    virtual std::size_t footprintBytes() const = 0;
};

/**
 * Linear perceptron with bias, trained by stochastic gradient descent.
 * The cheapest option — and exactly as limited as Appendix A says:
 * it can only represent outputs linear in the inputs.
 */
class PerceptronRegressor : public Regressor
{
  public:
    PerceptronRegressor(std::size_t numInputs, double learningRate = 0.05);

    void train(const std::vector<double> &x, double y) override;
    double predict(const std::vector<double> &x) const override;
    std::size_t footprintBytes() const override;

  private:
    double learningRate_;
    std::vector<double> weights_;   ///< last element is the bias
};

/**
 * Quantized-table regressor: the input cube is split into bins per
 * dimension; each cell keeps a running mean of the outputs that landed
 * in it.  Queries fall back to the global mean for untouched cells.
 * Represents the decision-tree/table family Appendix A compares
 * against: accurate only with many cells (= memory) and many examples.
 */
class TableRegressor : public Regressor
{
  public:
    /**
     * @param numInputs   input dimensionality
     * @param binsPerAxis table resolution per dimension (memory grows
     *                    as binsPerAxis^numInputs; capped internally)
     */
    TableRegressor(std::size_t numInputs, std::size_t binsPerAxis);

    void train(const std::vector<double> &x, double y) override;
    double predict(const std::vector<double> &x) const override;
    std::size_t footprintBytes() const override;

    std::size_t cells() const { return sums_.size(); }

  private:
    std::size_t index(const std::vector<double> &x) const;

    std::size_t inputs_;
    std::size_t bins_;
    std::vector<double> sums_;
    std::vector<std::uint32_t> counts_;
    double globalSum_ = 0.0;
    std::uint64_t globalCount_ = 0;
};

} // namespace eval

