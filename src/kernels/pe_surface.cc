#include "kernels/pe_surface.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.hh"

namespace eval {

PeSurface::PeSurface(const ProcessParams &params, double vt0Mean,
                     double leffMean, std::vector<double> delays,
                     const std::vector<double> &survivalLog)
    : params_(params), delays_(std::move(delays))
{
    EVAL_ASSERT(!delays_.empty() &&
                    survivalLog.size() == delays_.size() + 1,
                "PE surface needs sorted delays + survival logs");

    // Hoisted constants of the legacy delayScale expression, computed
    // with the identical expression trees so per-query results keep
    // their exact bit patterns.
    const OperatingConditions corner = OperatingConditions::nominal(params_);
    const double vtCorner = effectiveVt(params_, params_.vtMean, corner);
    denomCorner_ = rawAlphaPowerDelay(params_, vtCorner, params_.leffMean,
                                      corner.vdd, corner.tempC);
    EVAL_ASSERT(denomCorner_ > 0.0 &&
                    denomCorner_ < kNonFunctionalDelayFactor,
                "design corner must be functional");
    vt0Amp_ = params_.vtMean +
              params_.delayVariationGain * (vt0Mean - params_.vtMean);
    leffAmp_ = params_.leffMean +
               params_.delayVariationGain * (leffMean - params_.leffMean);
    const double vtEffCorner = effectiveVt(params_, vt0Amp_, corner);
    const double numCorner = rawAlphaPowerDelay(
        params_, vtEffCorner, leffAmp_, corner.vdd, corner.tempC);
    EVAL_ASSERT(numCorner < kNonFunctionalDelayFactor,
                "stage must be functional at the design corner");
    atCorner_ = numCorner / denomCorner_;
    EVAL_ASSERT(atCorner_ > 0.0, "corner delay factor must be positive");

    // PE levels, precomputed once with the legacy expression (so an
    // exact-mode query returns the very same double the old code
    // computed per call), then verified nonincreasing so the budget
    // walk can become a partition point.
    const std::size_t n = delays_.size();
    levels_.resize(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
        levels_[i] = 1.0 - std::exp(survivalLog[i]);
    for (std::size_t i = 0; i + 1 <= n; ++i)
        EVAL_ASSERT(levels_[i] >= levels_[i + 1],
                    "PE levels must be nonincreasing");

    // Bucket index accelerating upper_bound: K ~= n uniform cells.
    const double lo = delays_.front();
    const double hi = delays_.back();
    if (hi > lo) {
        const std::size_t k = n;
        bucketLo_ = lo;
        bucketInvWidth_ = static_cast<double>(k) / (hi - lo);
        bucketStart_.resize(k);
        auto bucketOf = [&](double x) {
            const double f = (x - bucketLo_) * bucketInvWidth_;
            if (f <= 0.0)
                return std::size_t{0};
            if (f >= static_cast<double>(k))
                return k - 1;
            return static_cast<std::size_t>(f);
        };
        // bucketStart_[b] = first delay index whose bucket is >= b.
        std::size_t idx = 0;
        for (std::size_t b = 0; b < k; ++b) {
            while (idx < n && bucketOf(delays_[idx]) < b)
                ++idx;
            bucketStart_[b] = static_cast<std::uint32_t>(idx);
        }
    }
}

double
PeSurface::scaleExact(const OperatingConditions &op) const
{
    const double vtEff = effectiveVt(params_, vt0Amp_, op);
    const double num = rawAlphaPowerDelay(params_, vtEff, leffAmp_,
                                          op.vdd, op.tempC);
    if (num >= kNonFunctionalDelayFactor)
        return kNonFunctionalDelayFactor;
    const double atOp = num / denomCorner_;
    if (atOp >= kNonFunctionalDelayFactor)
        return kNonFunctionalDelayFactor;
    return atOp / atCorner_;
}

std::size_t
PeSurface::upperBoundIndex(double threshold) const
{
    const std::size_t n = delays_.size();
    if (bucketStart_.empty())
        return static_cast<std::size_t>(
            std::upper_bound(delays_.begin(), delays_.end(), threshold) -
            delays_.begin());
    const std::size_t k = bucketStart_.size();
    const double f = (threshold - bucketLo_) * bucketInvWidth_;
    std::size_t i;
    if (f <= 0.0) {
        i = 0;
    } else if (f >= static_cast<double>(k)) {
        i = bucketStart_[k - 1];
    } else {
        i = bucketStart_[static_cast<std::size_t>(f)];
    }
    // bucketStart_ guarantees delays_[j] <= threshold for all j < i
    // (their bucket is strictly lower), so this short scan lands on
    // exactly the std::upper_bound index.
    while (i < n && delays_[i] <= threshold)
        ++i;
    return i;
}

std::size_t
PeSurface::firstIndexWithinBudget(double peBudget) const
{
    const std::size_t n = delays_.size();
    // levels_[0..n) is nonincreasing (asserted at construction), so
    // the predicate (level > budget) is partitioned and the partition
    // point equals the index the legacy slowest-down walk found --
    // including the tie rule (level == budget keeps walking down).
    const auto it = std::partition_point(
        levels_.begin(), levels_.begin() + static_cast<std::ptrdiff_t>(n),
        [peBudget](double level) { return level > peBudget; });
    return static_cast<std::size_t>(it - levels_.begin());
}

} // namespace eval
