/**
 * @file
 * Small numeric helpers shared across the library: Gaussian CDF and
 * quantile, linear interpolation, and clamping.
 */

#pragma once

#include <algorithm>

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

} // namespace eval

