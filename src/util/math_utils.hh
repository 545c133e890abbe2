/**
 * @file
 * Small numeric helpers shared across the library: Gaussian CDF and
 * quantile, interpolation, clamping, and robust fixed-point iteration.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace eval {

/** Standard normal cumulative distribution function. */
double normalCdf(double x);

/** Normal CDF with the given mean and standard deviation. */
double normalCdf(double x, double mean, double sigma);

/**
 * Inverse standard normal CDF (Acklam's rational approximation,
 * |relative error| < 1.15e-9 over (0, 1)).
 */
double normalQuantile(double p);

/** Linear interpolation between a and b by t in [0, 1]. */
double lerp(double a, double b, double t);

/** Clamp x to [lo, hi].  Inline: it sits inside the thermal fixed
 *  point and the FC gradient step, where an out-of-line call costs
 *  more than the two compares. */
inline double
clamp(double x, double lo, double hi)
{
    return std::min(std::max(x, lo), hi);
}

/**
 * Piecewise-linear interpolation through sorted (x, y) samples.
 * Extrapolates flat beyond the endpoints.
 */
double interpolate(const std::vector<double> &xs,
                   const std::vector<double> &ys, double x);

/**
 * Damped fixed-point iteration x_{k+1} = (1-d)*x_k + d*f(x_k).
 *
 * @param f        update function
 * @param x0       starting point
 * @param damping  fraction of the new value blended in per step
 * @param tol      absolute convergence tolerance
 * @param maxIter  iteration budget
 * @param converged optional out-flag set false when the budget expires
 * @return the final iterate
 */
double fixedPoint(const std::function<double(double)> &f, double x0,
                  double damping = 0.5, double tol = 1e-6,
                  std::size_t maxIter = 200, bool *converged = nullptr);

/**
 * Golden-section search for the maximizer of a unimodal function on
 * [lo, hi].  Returns the x of the maximum found.
 */
double goldenSectionMax(const std::function<double(double)> &f,
                        double lo, double hi, double tol = 1e-4);

} // namespace eval

