/**
 * @file
 * Generator of zero-mean, unit-variance Gaussian random fields with the
 * VARIUS spherical spatial-correlation structure, via circulant
 * embedding on a doubled torus (exact up to eigenvalue clamping).
 *
 * The correlation between two points depends only on their distance r
 * and decays to zero at range phi:
 *
 *   rho(r) = 1 - 1.5 (r/phi) + 0.5 (r/phi)^3     for r <= phi
 *   rho(r) = 0                                    for r >  phi
 */

#pragma once

#include <cstddef>
#include <vector>

#include "util/fft.hh"
#include "util/random.hh"

namespace eval {

/** Spherical correlation function with range phi (distances in chip
 *  units, chip width = 1). */
double sphericalCorrelation(double r, double phi);

/**
 * In-place 2-D FFT over a row-major rows x cols array.
 * Both dimensions must be powers of two.  The inverse transform is
 * unnormalized; callers divide by rows*cols.  Rows, then columns, fan
 * out over the global thread pool (bit-identical at any thread count).
 */
void fft2d(std::vector<Complex> &data, std::size_t rows, std::size_t cols,
           bool inverse);

/**
 * Samples correlated N x N fields over the unit chip.  The spectral
 * factor is precomputed once; each sample() costs two FFTs.
 */
class CorrelatedFieldGenerator
{
  public:
    /**
     * @param gridSize field resolution N (power of two)
     * @param phi      correlation range as a fraction of chip width
     */
    CorrelatedFieldGenerator(std::size_t gridSize, double phi);

    std::size_t gridSize() const { return n_; }

    /**
     * Draw one field: row-major N x N, ~N(0,1) marginals with the
     * spherical correlation structure.  Each call consumes randomness
     * from @p rng.
     */
    std::vector<double> sample(Rng &rng) const;

    /**
     * Draw a pair of fields with cross-correlation @p rho between them
     * (each field itself has the standard spatial structure).
     */
    std::pair<std::vector<double>, std::vector<double>>
    samplePair(Rng &rng, double rho) const;

  private:
    std::size_t n_;       ///< output grid
    std::size_t m_;       ///< embedding torus (2 * n_)
    double phi_;
    std::vector<double> spectrumSqrt_;  ///< sqrt of clamped eigenvalues
};

} // namespace eval

