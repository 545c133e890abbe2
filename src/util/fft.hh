/**
 * @file
 * Minimal in-place radix-2 1-D FFT; the circulant-embedding generator
 * of spatially-correlated variation fields builds its parallel 2-D
 * transform on it (variation/correlated_field.hh, fft2d).
 *
 * Only power-of-two sizes are supported; the variation grid is chosen
 * accordingly.
 */

#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace eval {

using Complex = std::complex<double>;

/** True when n is a power of two (and nonzero). */
bool isPowerOfTwo(std::size_t n);

/**
 * In-place iterative Cooley-Tukey FFT.
 *
 * @param data    sequence of complex samples; length must be a power of two
 * @param inverse when true computes the (unnormalized) inverse transform
 */
void fft(std::vector<Complex> &data, bool inverse);

} // namespace eval

