#include "variation/correlated_field.hh"

#include <cmath>

#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace eval {

double
sphericalCorrelation(double r, double phi)
{
    EVAL_ASSERT(phi > 0.0, "correlation range must be positive");
    if (r >= phi)
        return 0.0;
    const double t = r / phi;
    return 1.0 - 1.5 * t + 0.5 * t * t * t;
}

void
fft2d(std::vector<Complex> &data, std::size_t rows, std::size_t cols,
      bool inverse)
{
    EVAL_ASSERT(data.size() == rows * cols, "fft2d size mismatch");
    EVAL_ASSERT(isPowerOfTwo(rows) && isPowerOfTwo(cols),
                "fft2d dims must be powers of two");

    // Rows (and then columns) are independent 1-D transforms over
    // disjoint data, so the fan-out is race-free and bit-identical to
    // the serial loop for any thread count.  A few rows per chunk
    // amortizes scheduling; nested calls (e.g. from a parallel
    // per-chip loop) run inline via the pool's nesting fallback.
    ThreadPool &pool = globalPool();

    // Transform rows (contiguous, in place).
    pool.parallelFor(0, rows, 4, [&data, cols, inverse](std::size_t r) {
        std::vector<Complex> scratch(
            data.begin() + static_cast<std::ptrdiff_t>(r * cols),
            data.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
        fft(scratch, inverse);
        std::copy(scratch.begin(), scratch.end(),
                  data.begin() + static_cast<std::ptrdiff_t>(r * cols));
    });

    // Transform columns (strided gather/scatter).
    pool.parallelFor(0, cols, 4,
                     [&data, rows, cols, inverse](std::size_t c) {
        std::vector<Complex> scratch(rows);
        for (std::size_t r = 0; r < rows; ++r)
            scratch[r] = data[r * cols + c];
        fft(scratch, inverse);
        for (std::size_t r = 0; r < rows; ++r)
            data[r * cols + c] = scratch[r];
    });
}

CorrelatedFieldGenerator::CorrelatedFieldGenerator(std::size_t gridSize,
                                                   double phi)
    : n_(gridSize), m_(phi > 0.5 ? 4 * gridSize : 2 * gridSize),
      phi_(phi)
{
    // Long-range correlations need a larger embedding torus to stay
    // (near) positive definite; phi <= 0.5 fits in the 2x embedding.
    EVAL_ASSERT(isPowerOfTwo(n_), "grid size must be a power of two");

    // First row of the block-circulant covariance on the m_ x m_ torus:
    // correlations at wrap-around distances.  Cell spacing is the chip
    // pitch 1/n_ so that the n_ x n_ sub-block covers the unit chip.
    const double pitch = 1.0 / static_cast<double>(n_);
    std::vector<Complex> cov(m_ * m_);
    for (std::size_t iy = 0; iy < m_; ++iy) {
        for (std::size_t ix = 0; ix < m_; ++ix) {
            const double dx =
                pitch * static_cast<double>(std::min(ix, m_ - ix));
            const double dy =
                pitch * static_cast<double>(std::min(iy, m_ - iy));
            const double r = std::hypot(dx, dy);
            cov[iy * m_ + ix] = Complex(sphericalCorrelation(r, phi_), 0.0);
        }
    }

    fft2d(cov, m_, m_, false);

    // Eigenvalues of the circulant are the (real) DFT coefficients.
    // Clamp tiny negative values produced when the embedding is not
    // strictly positive definite, then renormalize so the sampled
    // field keeps unit variance: Var = sum(lambda) / M^2.
    double sum = 0.0;
    spectrumSqrt_.resize(m_ * m_);
    for (std::size_t i = 0; i < cov.size(); ++i) {
        double lambda = cov[i].real();
        if (lambda < 0.0)
            lambda = 0.0;
        spectrumSqrt_[i] = lambda;
        sum += lambda;
    }
    const double target = static_cast<double>(m_) * static_cast<double>(m_);
    EVAL_ASSERT(sum > 0.0, "degenerate correlation spectrum");
    const double rescale = target / sum;
    for (auto &s : spectrumSqrt_)
        s = std::sqrt(s * rescale);
}

std::vector<double>
CorrelatedFieldGenerator::sample(Rng &rng) const
{
    auto both = samplePair(rng, 0.0);
    return std::move(both.first);
}

std::pair<std::vector<double>, std::vector<double>>
CorrelatedFieldGenerator::samplePair(Rng &rng, double rho) const
{
    EVAL_ASSERT(rho >= -1.0 && rho <= 1.0, "cross-correlation in [-1,1]");

    // One complex white-noise draw yields two independent fields (real
    // and imaginary parts of the synthesized torus sample).
    std::vector<Complex> spec(m_ * m_);
    for (std::size_t i = 0; i < spec.size(); ++i) {
        spec[i] = Complex(rng.gaussian(), rng.gaussian()) * spectrumSqrt_[i];
    }
    fft2d(spec, m_, m_, true);

    const double norm = 1.0 / static_cast<double>(m_);
    std::vector<double> a(n_ * n_), b(n_ * n_);
    const double mix = std::sqrt(1.0 - rho * rho);
    for (std::size_t iy = 0; iy < n_; ++iy) {
        for (std::size_t ix = 0; ix < n_; ++ix) {
            const Complex v = spec[iy * m_ + ix];
            const double f1 = v.real() * norm;
            const double f2 = v.imag() * norm;
            a[iy * n_ + ix] = f1;
            b[iy * n_ + ix] = rho * f1 + mix * f2;
        }
    }
    return {std::move(a), std::move(b)};
}

} // namespace eval
