#include "variation/variation_map.hh"

#include <algorithm>

#include "util/math_utils.hh"

namespace eval {

VariationMap::VariationMap(const ProcessParams &params, std::size_t n)
    : params_(params), n_(n),
      vtSys_(n * n, params.vtMean),
      leffSys_(n * n, params.leffMean)
{
}

VariationMap::VariationMap(const ProcessParams &params,
                           const CorrelatedFieldGenerator &gen, Rng &rng)
    : VariationMap(params, gen.gridSize())
{
    auto fields = gen.samplePair(rng, params.vtLeffCorrelation);
    const double vtSigma = params.vtSigmaSys();
    const double leffSigma = params.leffSigmaSys();
    for (std::size_t i = 0; i < n_ * n_; ++i) {
        vtSys_[i] = params.vtMean + vtSigma * fields.first[i];
        leffSys_[i] = params.leffMean + leffSigma * fields.second[i];
        // A physically meaningless negative/zero channel length can only
        // arise at absurd sigma settings; clamp defensively.
        leffSys_[i] = std::max(leffSys_[i], 0.1 * params.leffMean);
    }
}

VariationMap
VariationMap::flat(const ProcessParams &params)
{
    return VariationMap(params, params.gridSize);
}

double
VariationMap::bilinear(const std::vector<double> &field, double x,
                       double y) const
{
    const double fx = clamp(x, 0.0, 1.0) * static_cast<double>(n_ - 1);
    const double fy = clamp(y, 0.0, 1.0) * static_cast<double>(n_ - 1);
    const auto ix = static_cast<std::size_t>(fx);
    const auto iy = static_cast<std::size_t>(fy);
    const std::size_t ix1 = std::min(ix + 1, n_ - 1);
    const std::size_t iy1 = std::min(iy + 1, n_ - 1);
    const double tx = fx - static_cast<double>(ix);
    const double ty = fy - static_cast<double>(iy);

    const double v00 = field[iy * n_ + ix];
    const double v01 = field[iy * n_ + ix1];
    const double v10 = field[iy1 * n_ + ix];
    const double v11 = field[iy1 * n_ + ix1];
    return lerp(lerp(v00, v01, tx), lerp(v10, v11, tx), ty);
}

double
VariationMap::rectMean(const std::vector<double> &field, const Rect &r) const
{
    // Sample on a small lattice; subsystem rectangles are a few grid
    // cells wide so a 4x4 lattice is ample.
    constexpr int samples = 4;
    double sum = 0.0;
    for (int iy = 0; iy < samples; ++iy) {
        for (int ix = 0; ix < samples; ++ix) {
            const double x = r.x0 + r.width() * (ix + 0.5) / samples;
            const double y = r.y0 + r.height() * (iy + 0.5) / samples;
            sum += bilinear(field, x, y);
        }
    }
    return sum / (samples * samples);
}

double
VariationMap::vtSystematicAt(double x, double y) const
{
    return bilinear(vtSys_, x, y);
}

double
VariationMap::leffSystematicAt(double x, double y) const
{
    return bilinear(leffSys_, x, y);
}

double
VariationMap::vtSystematicMean(const Rect &r) const
{
    return rectMean(vtSys_, r);
}

double
VariationMap::leffSystematicMean(const Rect &r) const
{
    return rectMean(leffSys_, r);
}

} // namespace eval
