/** Tests for numeric helpers (util/math_utils.hh). */

#include <gtest/gtest.h>

#include "util/math_utils.hh"

namespace eval {
namespace {

TEST(NormalCdf, KnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.0), 0.8413447460685429, 1e-9);
    EXPECT_NEAR(normalCdf(-1.0), 1.0 - 0.8413447460685429, 1e-9);
    EXPECT_NEAR(normalCdf(3.0), 0.9986501019683699, 1e-9);
}

TEST(NormalCdf, ScaledForm)
{
    EXPECT_NEAR(normalCdf(10.0, 10.0, 2.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(12.0, 10.0, 2.0), normalCdf(1.0), 1e-12);
}

TEST(NormalQuantile, InvertsCdf)
{
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
        const double x = normalQuantile(p);
        EXPECT_NEAR(normalCdf(x), p, 1e-6) << "p=" << p;
    }
}

TEST(NormalQuantile, TailAccuracy)
{
    EXPECT_NEAR(normalQuantile(1e-4), -3.719016485, 1e-5);
    EXPECT_NEAR(normalQuantile(1.0 - 1e-4), 3.719016485, 1e-5);
}

TEST(LerpClamp, Basics)
{
    EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

/** Property sweep: quantile/CDF round trip across the unit interval. */
class QuantileRoundTrip : public ::testing::TestWithParam<double>
{
};

TEST_P(QuantileRoundTrip, CdfOfQuantileIsIdentity)
{
    const double p = GetParam();
    EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileRoundTrip,
                         ::testing::Values(1e-6, 1e-4, 0.02, 0.3, 0.5,
                                           0.7, 0.98, 1.0 - 1e-4,
                                           1.0 - 1e-6));

} // namespace
} // namespace eval
