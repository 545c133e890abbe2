/**
 * @file
 * Streaming statistics accumulators and histograms used by the
 * simulator, the benchmark harness, and the tests.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace eval {

/**
 * Welford-style streaming accumulator for mean/variance/min/max.
 * Numerically stable for long runs.
 */
class RunningStats
{
  public:
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const;
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return mean() * static_cast<double>(count_); }

    void reset();

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bin histogram over [lo, hi); out-of-range samples clamp to
 * the edge bins and NaN samples are dropped, so every summary query
 * (quantile, render) is defined and NaN-free even before the first
 * sample.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x, double weight = 1.0);

    std::size_t bins() const { return counts_.size(); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    double binLow(std::size_t i) const;
    double binCenter(std::size_t i) const;
    double count(std::size_t i) const { return counts_[i]; }
    double totalWeight() const { return total_; }

    /** Weighted quantile (q in [0, 1]) using linear in-bin blending;
     *  lo() when the histogram holds no weight. */
    double quantile(double q) const;

    /** Render as a one-line-per-bin ASCII bar chart. */
    std::string render(std::size_t barWidth = 50) const;

  private:
    double lo_;
    double hi_;
    double width_;
    double total_ = 0.0;
    std::vector<double> counts_;
};

/** Exact sample-set percentile helper (stores all samples). */
class SampleSet
{
  public:
    void add(double x) { samples_.push_back(x); }

    std::size_t size() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    /** Linear-interpolated percentile; 0.0 on an empty set. */
    double percentile(double p) const;
    double mean() const;
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
};

} // namespace eval

