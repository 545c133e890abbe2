/** Tests for the correlated-field generator and its 2-D FFT. */

#include <cmath>

#include <gtest/gtest.h>

#include "util/random.hh"
#include "util/statistics.hh"
#include "variation/correlated_field.hh"

namespace eval {
namespace {

TEST(SphericalCorrelation, Endpoints)
{
    EXPECT_DOUBLE_EQ(sphericalCorrelation(0.0, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(sphericalCorrelation(0.5, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(sphericalCorrelation(0.9, 0.5), 0.0);
}

TEST(SphericalCorrelation, MonotoneDecreasing)
{
    double prev = 1.1;
    for (double r = 0.0; r <= 0.5; r += 0.01) {
        const double c = sphericalCorrelation(r, 0.5);
        EXPECT_LT(c, prev);
        prev = c;
    }
}

TEST(CorrelatedField, UnitVarianceAndZeroMean)
{
    CorrelatedFieldGenerator gen(32, 0.5);
    Rng rng(11);
    RunningStats stats;
    for (int s = 0; s < 60; ++s) {
        const auto field = gen.sample(rng);
        for (double v : field)
            stats.add(v);
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(CorrelatedField, SpatialCorrelationMatchesTarget)
{
    const std::size_t n = 32;
    const double phi = 0.5;
    CorrelatedFieldGenerator gen(n, phi);
    Rng rng(13);

    // Estimate correlation at a few pixel lags along x.
    const std::size_t lags[] = {1, 4, 8, 16};
    RunningStats cov[4];
    for (int s = 0; s < 200; ++s) {
        const auto f = gen.sample(rng);
        for (std::size_t li = 0; li < 4; ++li) {
            const std::size_t lag = lags[li];
            for (std::size_t y = 0; y < n; ++y) {
                for (std::size_t x = 0; x + lag < n; ++x)
                    cov[li].add(f[y * n + x] * f[y * n + x + lag]);
            }
        }
    }
    for (std::size_t li = 0; li < 4; ++li) {
        const double dist = static_cast<double>(lags[li]) / n;
        const double expected = sphericalCorrelation(dist, phi);
        EXPECT_NEAR(cov[li].mean(), expected, 0.08)
            << "lag " << lags[li];
    }
}

TEST(CorrelatedField, PairCrossCorrelation)
{
    CorrelatedFieldGenerator gen(32, 0.5);
    Rng rng(17);
    for (double rho : {0.0, 0.5, 0.9}) {
        RunningStats cross;
        for (int s = 0; s < 100; ++s) {
            const auto [a, b] = gen.samplePair(rng, rho);
            for (std::size_t i = 0; i < a.size(); ++i)
                cross.add(a[i] * b[i]);
        }
        EXPECT_NEAR(cross.mean(), rho, 0.06) << "rho " << rho;
    }
}

TEST(CorrelatedField, DeterministicGivenRngState)
{
    CorrelatedFieldGenerator gen(16, 0.5);
    Rng a(5), b(5);
    const auto fa = gen.sample(a);
    const auto fb = gen.sample(b);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i)
        EXPECT_DOUBLE_EQ(fa[i], fb[i]);
}

/** Property: unit variance holds across grid sizes and ranges. */
class FieldSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>>
{
};

TEST_P(FieldSweep, UnitVariance)
{
    const auto [n, phi] = GetParam();
    CorrelatedFieldGenerator gen(n, phi);
    Rng rng(23 + n);
    RunningStats stats;
    for (int s = 0; s < 120; ++s) {
        for (double v : gen.sample(rng))
            stats.add(v);
    }
    // Long-range fields have few independent samples per draw, so the
    // sample-standard-deviation estimate itself is noisier.
    EXPECT_NEAR(stats.stddev(), 1.0, 0.06 + 0.08 * phi);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FieldSweep,
    ::testing::Combine(::testing::Values<std::size_t>(16, 32, 64),
                       ::testing::Values(0.1, 0.3, 0.5, 0.9)));

TEST(Fft2d, RoundTrip)
{
    Rng rng(4);
    const std::size_t rows = 8, cols = 16;
    std::vector<Complex> data(rows * cols);
    std::vector<Complex> orig(rows * cols);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = Complex(rng.gaussian(), rng.gaussian());
        orig[i] = data[i];
    }
    fft2d(data, rows, cols, false);
    fft2d(data, rows, cols, true);
    const double norm = static_cast<double>(rows * cols);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real() / norm, orig[i].real(), 1e-9);
        EXPECT_NEAR(data[i].imag() / norm, orig[i].imag(), 1e-9);
    }
}

TEST(Fft2d, SeparableSignalTransformsSeparably)
{
    // A constant image transforms to a single DC spike.
    const std::size_t n = 8;
    std::vector<Complex> data(n * n, Complex(1.0, 0.0));
    fft2d(data, n, n, false);
    EXPECT_NEAR(data[0].real(), static_cast<double>(n * n), 1e-9);
    for (std::size_t i = 1; i < data.size(); ++i)
        EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-9);
}

} // namespace
} // namespace eval
