#include "util/statistics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace eval {

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
RunningStats::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    return count_ ? min_ : 0.0;
}

double
RunningStats::max() const
{
    return count_ ? max_ : 0.0;
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0)
{
    EVAL_ASSERT(hi > lo && bins > 0, "histogram needs hi > lo, bins > 0");
}

void
Histogram::add(double x, double weight)
{
    // NaN samples have no meaningful bin; drop them so quantile() and
    // render() stay NaN-free.  Infinities clamp to the edge bins like
    // any other out-of-range sample.
    if (std::isnan(x) || std::isnan(weight))
        return;
    double t = (x - lo_) / width_;
    if (std::isnan(t))
        t = 0.0;
    t = std::min(std::max(t, -1e18), 1e18);
    auto idx = static_cast<long>(std::floor(t));
    idx = std::max<long>(0, std::min<long>(idx,
              static_cast<long>(counts_.size()) - 1));
    counts_[static_cast<std::size_t>(idx)] += weight;
    total_ += weight;
}

double
Histogram::binLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::binCenter(std::size_t i) const
{
    return binLow(i) + 0.5 * width_;
}

double
Histogram::quantile(double q) const
{
    EVAL_ASSERT(q >= 0.0 && q <= 1.0, "quantile domain is [0,1]");
    // Empty (or weightless) histogram: every quantile is the range
    // floor, never NaN — callers such as the stats-registry CSV dump
    // query p50/p90/p99 before any sample arrives.
    if (total_ <= 0.0)
        return lo_;
    const double target = q * total_;
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (cum + counts_[i] >= target) {
            const double frac =
                counts_[i] > 0 ? (target - cum) / counts_[i] : 0.0;
            return binLow(i) + frac * width_;
        }
        cum += counts_[i];
    }
    return hi_;
}

std::string
Histogram::render(std::size_t barWidth) const
{
    double peak = 0.0;
    for (double c : counts_)
        peak = std::max(peak, c);
    std::ostringstream os;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto len = static_cast<std::size_t>(
            peak > 0 ? counts_[i] / peak * static_cast<double>(barWidth)
                     : 0);
        os << binCenter(i) << "\t|" << std::string(len, '#') << "\n";
    }
    return os.str();
}

double
SampleSet::percentile(double p) const
{
    EVAL_ASSERT(p >= 0.0 && p <= 1.0, "percentile domain is [0,1]");
    // Defined, NaN-free result on no data (summary tables query
    // percentiles of cells that may have collected nothing).
    if (samples_.empty())
        return 0.0;
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

} // namespace eval
