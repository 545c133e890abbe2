// eval-lint: hot-path the FC gradient step and inference run per
// training example and per controller query; only construction may
// allocate.
#include "fuzzy/fuzzy_controller.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

namespace {

constexpr double kMinSigma = 1e-3;

void
saveVector(std::ostream &os, std::span<const double> v)
{
    os << v.size();
    os.precision(17);
    for (double x : v)
        os << ' ' << x;
    os << '\n';
}

} // namespace

void
InputNormalizer::fit(std::span<const FcInput> samples, std::size_t dims)
{
    EVAL_ASSERT(!samples.empty(), "normalizer needs samples");
    EVAL_ASSERT(dims <= kMaxFcInputs, "too many controller inputs");
    dims_ = dims;
    lo_.fill(std::numeric_limits<double>::infinity());
    hi_.fill(-std::numeric_limits<double>::infinity());
    for (const FcInput &s : samples) {
        for (std::size_t j = 0; j < dims_; ++j) {
            lo_[j] = std::min(lo_[j], s[j]);
            hi_[j] = std::max(hi_[j], s[j]);
        }
    }
}

void
InputNormalizer::fitScalar(const std::vector<double> &samples)
{
    EVAL_ASSERT(!samples.empty(), "normalizer needs samples");
    dims_ = 1;
    lo_[0] = *std::min_element(samples.begin(), samples.end());
    hi_[0] = *std::max_element(samples.begin(), samples.end());
}

FcInput
InputNormalizer::normalize(std::span<const double> raw) const
{
    EVAL_ASSERT(raw.size() == dims_, "dimension mismatch");
    FcInput out{};
    for (std::size_t j = 0; j < dims_; ++j) {
        const double span = hi_[j] - lo_[j];
        out[j] = span > 0.0 ? (raw[j] - lo_[j]) / span : 0.5;
    }
    return out;
}

double
InputNormalizer::normalizeScalar(double raw) const
{
    EVAL_ASSERT(dims_ == 1, "scalar normalizer expected");
    const double span = hi_[0] - lo_[0];
    return span > 0.0 ? (raw - lo_[0]) / span : 0.5;
}

double
InputNormalizer::denormalizeScalar(double normalized) const
{
    EVAL_ASSERT(dims_ == 1, "scalar normalizer expected");
    return lo_[0] + normalized * (hi_[0] - lo_[0]);
}

FuzzyController::FuzzyController(std::size_t numRules,
                                 std::size_t numInputs)
    : rules_(numRules), inputs_(numInputs),
      mu_(numRules * numInputs, 0.0),
      sigma_(numRules * numInputs, 0.05),
      y_(numRules, 0.0)
{
    EVAL_ASSERT(numRules > 0 && numInputs > 0, "controller shape");
    EVAL_ASSERT(numRules <= kMaxFcRules, "too many controller rules");
}

double
FuzzyController::membership(std::size_t rule,
                            std::span<const double> x) const
{
    // Eq 10/11: product of Gaussian memberships, computed in log space
    // for numerical robustness.
    double logW = 0.0;
    const std::size_t base = rule * inputs_;
    for (std::size_t j = 0; j < inputs_; ++j) {
        const double d = (x[j] - mu_[base + j]) / sigma_[base + j];
        logW -= d * d;
    }
    return std::exp(logW);
}

double
FuzzyController::infer(std::span<const double> x) const
{
    EVAL_ASSERT(x.size() == inputs_, "input dimension mismatch");
    const std::size_t active = std::max<std::size_t>(seeded_, 1);

    double num = 0.0;
    double den = 0.0;
    double bestW = -1.0;
    double bestY = y_[0];
    for (std::size_t i = 0; i < active && i < rules_; ++i) {
        const double w = membership(i, x);
        num += w * y_[i];
        den += w;
        if (w > bestW) {
            bestW = w;
            bestY = y_[i];
        }
    }
    if (den <= 1e-290)
        return bestY;   // far outside support: nearest rule wins
    return num / den;   // Eq 12
}

void
FuzzyController::train(std::span<const double> x, double y,
                       double learningRate, Rng &rng)
{
    EVAL_ASSERT(x.size() == inputs_, "input dimension mismatch");

    if (seeded_ < rules_) {
        const std::size_t base = seeded_ * inputs_;
        for (std::size_t j = 0; j < inputs_; ++j) {
            mu_[base + j] = x[j];
            sigma_[base + j] = std::max(kMinSigma,
                                        rng.uniform(0.02, 0.1));
        }
        y_[seeded_] = y;
        ++seeded_;
        return;
    }

    // Gradient step (Eq 13) on e = (y - z)^2 for every rule.  Every
    // product below keeps the association of the textbook expression
    // (lr * base * dzdW * dW, w * 2 * diff / sg^2, ...): hoisting a
    // left-associated prefix out of the j loop leaves its bits alone,
    // and the trained rule base stays bit-identical.
    std::array<double, kMaxFcRules> w;
    double den = 0.0;
    double num = 0.0;
    for (std::size_t i = 0; i < rules_; ++i) {
        w[i] = membership(i, x);
        den += w[i];
        num += w[i] * y_[i];
    }
    if (den <= 1e-290)
        return;   // no rule is responsible; skip the example
    const double z = num / den;
    const double err = y - z;   // d(e)/dz = -2 err
    const double base = 2.0 * err;

    for (std::size_t i = 0; i < rules_; ++i) {
        // A rule whose membership underflowed to +0 (exp is never
        // negative; a quarter of all rules in Fig 13 training) would,
        // with a finite label and rule base, add a signed zero to each
        // of its parameters and re-clamp a sigma already in bounds.
        // That changes no parameter other than -0.0, and normalized
        // inputs and labels are never -0.0, so skipping the rule keeps
        // the rule base bit-identical.
        if (w[i] <= 0.0)
            continue;
        const double dzdW = (y_[i] - z) / den;
        const double step = learningRate * base * dzdW;
        const double w2 = w[i] * 2.0;
        double *mu = mu_.data() + i * inputs_;
        double *sigma = sigma_.data() + i * inputs_;

        // y update: dz/dy_i = w_i / den.
        y_[i] += learningRate * base * (w[i] / den);

        for (std::size_t j = 0; j < inputs_; ++j) {
            const double sg = sigma[j];
            const double diff = x[j] - mu[j];
            const double dWdMu = w2 * diff / (sg * sg);
            const double dWdSigma = w2 * diff * diff / (sg * sg * sg);
            mu[j] += step * dWdMu;
            sigma[j] = clamp(sg + step * dWdSigma, kMinSigma, 10.0);
        }
    }
}

std::size_t
FuzzyController::footprintBytes() const
{
    return sizeof(double) * (mu_.size() + sigma_.size() + y_.size());
}

void
FuzzyController::save(std::ostream &os) const
{
    os << "fc " << rules_ << ' ' << inputs_ << ' ' << seeded_ << '\n';
    saveVector(os, mu_);
    saveVector(os, sigma_);
    saveVector(os, y_);
}

TrainedController::TrainedController(std::size_t numRules,
                                     std::size_t numInputs)
    : fc_(numRules, numInputs)
{
}

void
TrainedController::train(std::span<const FcInput> inputs,
                         const std::vector<double> &outputs,
                         double learningRate, Rng &rng)
{
    EVAL_ASSERT(inputs.size() == outputs.size() && !inputs.empty(),
                "dataset shape mismatch");
    const std::size_t dims = fc_.numInputs();
    inputNorm_.fit(inputs, dims);
    outputNorm_.fitScalar(outputs);

    for (std::size_t k = 0; k < inputs.size(); ++k) {
        const FcInput x = inputNorm_.normalize({inputs[k].data(), dims});
        fc_.train({x.data(), dims}, outputNorm_.normalizeScalar(outputs[k]),
                  learningRate, rng);
    }
    trained_ = true;
}

double
TrainedController::predict(std::span<const double> rawInput) const
{
    EVAL_ASSERT(trained_, "controller used before training");
    const FcInput x = inputNorm_.normalize(rawInput);
    const double z = fc_.infer({x.data(), inputNorm_.dims()});
    return outputNorm_.denormalizeScalar(z);
}

} // namespace eval
