/** Tests for the FFT used by the correlated-field generator. */

#include <cmath>

#include <gtest/gtest.h>

#include "util/fft.hh"
#include "util/random.hh"

namespace eval {
namespace {

TEST(Fft, PowerOfTwoPredicate)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(1000));
}

TEST(Fft, DeltaTransformsToConstant)
{
    std::vector<Complex> data(8, Complex(0.0, 0.0));
    data[0] = Complex(1.0, 0.0);
    fft(data, false);
    for (const auto &v : data) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, RoundTripRecoversSignal)
{
    Rng rng(1);
    std::vector<Complex> data(64);
    std::vector<Complex> orig(64);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = Complex(rng.gaussian(), rng.gaussian());
        orig[i] = data[i];
    }
    fft(data, false);
    fft(data, true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real() / 64.0, orig[i].real(), 1e-9);
        EXPECT_NEAR(data[i].imag() / 64.0, orig[i].imag(), 1e-9);
    }
}

TEST(Fft, MatchesDirectDftOnSmallInput)
{
    Rng rng(2);
    const std::size_t n = 16;
    std::vector<Complex> data(n);
    for (auto &v : data)
        v = Complex(rng.gaussian(), rng.gaussian());
    std::vector<Complex> reference(n);
    for (std::size_t k = 0; k < n; ++k) {
        Complex acc(0.0, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double ang = -2.0 * M_PI * static_cast<double>(j * k) /
                               static_cast<double>(n);
            acc += data[j] * Complex(std::cos(ang), std::sin(ang));
        }
        reference[k] = acc;
    }
    fft(data, false);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(data[k].real(), reference[k].real(), 1e-9);
        EXPECT_NEAR(data[k].imag(), reference[k].imag(), 1e-9);
    }
}

TEST(Fft, ParsevalHolds)
{
    Rng rng(3);
    const std::size_t n = 128;
    std::vector<Complex> data(n);
    double timeEnergy = 0.0;
    for (auto &v : data) {
        v = Complex(rng.gaussian(), rng.gaussian());
        timeEnergy += std::norm(v);
    }
    fft(data, false);
    double freqEnergy = 0.0;
    for (const auto &v : data)
        freqEnergy += std::norm(v);
    EXPECT_NEAR(freqEnergy / static_cast<double>(n), timeEnergy, 1e-6);
}

} // namespace
} // namespace eval
