#include "util/math_utils.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace eval {

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x * M_SQRT1_2);
}

double
normalCdf(double x, double mean, double sigma)
{
    EVAL_ASSERT(sigma > 0.0, "normalCdf requires positive sigma");
    return normalCdf((x - mean) / sigma);
}

double
normalQuantile(double p)
{
    EVAL_ASSERT(p > 0.0 && p < 1.0, "normalQuantile domain is (0,1)");

    // Acklam's algorithm.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double plow = 0.02425;
    const double phigh = 1.0 - plow;

    double q, r;
    if (p < plow) {
        q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
               ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
    } else if (p <= phigh) {
        q = p - 0.5;
        r = q * q;
        return (((((a[0]*r + a[1])*r + a[2])*r + a[3])*r + a[4])*r + a[5])*q /
               (((((b[0]*r + b[1])*r + b[2])*r + b[3])*r + b[4])*r + 1.0);
    } else {
        q = std::sqrt(-2.0 * std::log(1.0 - p));
        return -(((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
               ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
    }
}

double
lerp(double a, double b, double t)
{
    return a + (b - a) * t;
}

double
interpolate(const std::vector<double> &xs, const std::vector<double> &ys,
            double x)
{
    EVAL_ASSERT(xs.size() == ys.size() && !xs.empty(),
                "interpolate needs equal-size non-empty samples");
    if (x <= xs.front())
        return ys.front();
    if (x >= xs.back())
        return ys.back();
    auto it = std::upper_bound(xs.begin(), xs.end(), x);
    std::size_t hi = static_cast<std::size_t>(it - xs.begin());
    std::size_t lo = hi - 1;
    const double span = xs[hi] - xs[lo];
    if (span <= 0.0)
        return ys[lo];
    return lerp(ys[lo], ys[hi], (x - xs[lo]) / span);
}

double
fixedPoint(const std::function<double(double)> &f, double x0, double damping,
           double tol, std::size_t maxIter, bool *converged)
{
    double x = x0;
    for (std::size_t i = 0; i < maxIter; ++i) {
        const double fx = f(x);
        const double next = (1.0 - damping) * x + damping * fx;
        if (std::abs(next - x) < tol) {
            if (converged)
                *converged = true;
            return next;
        }
        x = next;
    }
    if (converged)
        *converged = false;
    return x;
}

double
goldenSectionMax(const std::function<double(double)> &f, double lo, double hi,
                 double tol)
{
    EVAL_ASSERT(hi >= lo, "goldenSectionMax needs hi >= lo");
    const double invphi = (std::sqrt(5.0) - 1.0) / 2.0;
    double a = lo, b = hi;
    double c = b - invphi * (b - a);
    double d = a + invphi * (b - a);
    double fc = f(c), fd = f(d);
    while (b - a > tol) {
        if (fc > fd) {
            b = d; d = c; fd = fc;
            c = b - invphi * (b - a);
            fc = f(c);
        } else {
            a = c; c = d; fc = fd;
            d = a + invphi * (b - a);
            fd = f(d);
        }
    }
    return 0.5 * (a + b);
}

} // namespace eval
