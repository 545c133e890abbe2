/**
 * @file
 * Per-chip personalized maps of the systematic components of Vt and
 * Leff, plus the analytic random components (VARIUS model, Sec 2.1 of
 * the paper).
 */

#pragma once

#include <cstddef>
#include <vector>

#include "util/random.hh"
#include "variation/correlated_field.hh"
#include "variation/floorplan.hh"
#include "variation/process_params.hh"

namespace eval {

/**
 * Holds one chip's systematic Vt/Leff fields and exposes samplers that
 * add the per-transistor random component on demand.
 *
 * Systematic values are absolute: vt holds volts at the reference
 * temperature (100C), leff holds the normalized channel length.
 */
class VariationMap
{
  public:
    /**
     * Generate a chip map.
     *
     * @param params process description
     * @param gen    shared correlated-field generator (matching params)
     * @param rng    chip-specific random stream
     */
    VariationMap(const ProcessParams &params,
                 const CorrelatedFieldGenerator &gen, Rng &rng);

    /** Build a flat (no-variation) map for the NoVar environment. */
    static VariationMap flat(const ProcessParams &params);

    /** Systematic Vt at chip coordinates (x, y) in [0,1]^2, bilinear. */
    double vtSystematicAt(double x, double y) const;

    /** Systematic Leff at chip coordinates. */
    double leffSystematicAt(double x, double y) const;

    /** Mean systematic Vt over a rectangle (area-sampled). */
    double vtSystematicMean(const Rect &r) const;

    /** Mean systematic Leff over a rectangle. */
    double leffSystematicMean(const Rect &r) const;

    /** Random-component sigmas (per transistor). */
    double vtSigmaRandom() const { return params_.vtSigmaRan(); }
    double leffSigmaRandom() const { return params_.leffSigmaRan(); }

    const ProcessParams &params() const { return params_; }
    std::size_t gridSize() const { return n_; }

    /** Raw systematic fields, row-major n*n (hashed by the chip snapshot). */
    const std::vector<double> &vtSystematicField() const { return vtSys_; }
    const std::vector<double> &leffSystematicField() const
    {
        return leffSys_;
    }

  private:
    VariationMap(const ProcessParams &params, std::size_t n);

    double bilinear(const std::vector<double> &field, double x,
                    double y) const;
    double rectMean(const std::vector<double> &field, const Rect &r) const;

    ProcessParams params_;
    std::size_t n_;
    std::vector<double> vtSys_;    ///< absolute volts at reference temp
    std::vector<double> leffSys_;  ///< normalized length
};

} // namespace eval

