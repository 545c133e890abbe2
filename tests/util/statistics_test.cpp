/** Tests for streaming statistics (util/statistics.hh). */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/statistics.hh"

namespace eval {
namespace {

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic dataset is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(5.5);
    h.add(5.6);
    h.add(-100.0);   // clamps into the first bin
    h.add(100.0);    // clamps into the last bin
    EXPECT_DOUBLE_EQ(h.count(0), 2.0);
    EXPECT_DOUBLE_EQ(h.count(5), 2.0);
    EXPECT_DOUBLE_EQ(h.count(9), 1.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 5.0);
}

TEST(Histogram, WeightedQuantile)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, RenderContainsBars)
{
    Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    h.add(0.6);
    h.add(1.5);
    const std::string s = h.render(10);
    EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(SampleSet, Percentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-12);
    EXPECT_NEAR(s.percentile(1.0), 100.0, 1e-12);
    EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleSet, PercentileUnsortedInput)
{
    SampleSet s;
    for (double x : {9.0, 1.0, 5.0, 3.0, 7.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);
}

TEST(Histogram, EmptyHistogramIsNanFree)
{
    Histogram h(0.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 0.0);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_FALSE(std::isnan(v)) << "q=" << q;
        EXPECT_DOUBLE_EQ(v, 0.0); // empty -> lo()
    }
    EXPECT_NO_THROW((void)h.render(10));
}

TEST(Histogram, SingleSampleQuantiles)
{
    Histogram h(0.0, 10.0, 10);
    h.add(3.5);
    // q = 0 is the distribution's low edge by definition; every
    // positive quantile must land inside the lone sample's bin.
    EXPECT_FALSE(std::isnan(h.quantile(0.0)));
    EXPECT_GE(h.quantile(0.0), 0.0);
    EXPECT_LE(h.quantile(0.0), 4.0);
    for (double q : {0.25, 0.5, 0.75, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_FALSE(std::isnan(v));
        EXPECT_GE(v, 3.0) << "q=" << q; // inside the sample's bin
        EXPECT_LE(v, 4.0) << "q=" << q;
    }
}

TEST(Histogram, NanAndInfInputsAreHandled)
{
    Histogram h(0.0, 10.0, 10);
    h.add(std::nan(""));                   // dropped
    h.add(5.0, std::nan(""));              // dropped
    EXPECT_DOUBLE_EQ(h.totalWeight(), 0.0);
    h.add(std::numeric_limits<double>::infinity());   // clamps high
    h.add(-std::numeric_limits<double>::infinity());  // clamps low
    EXPECT_DOUBLE_EQ(h.count(0), 1.0);
    EXPECT_DOUBLE_EQ(h.count(9), 1.0);
    EXPECT_FALSE(std::isnan(h.quantile(0.5)));
}

TEST(HistogramDeath, DegenerateRangeIsRejected)
{
    // A zero-width range would make every bin boundary identical and
    // quantiles meaningless; the constructor asserts it away rather
    // than producing NaNs downstream.
    EXPECT_DEATH({ Histogram h(5.0, 5.0, 3); }, "hi > lo");
    EXPECT_DEATH({ Histogram h(0.0, 1.0, 0); }, "bins > 0");
}

TEST(SampleSet, EmptyPercentileIsZeroNotNan)
{
    SampleSet s;
    EXPECT_TRUE(s.empty());
    for (double p : {0.0, 0.5, 1.0}) {
        const double v = s.percentile(p);
        EXPECT_FALSE(std::isnan(v));
        EXPECT_DOUBLE_EQ(v, 0.0);
    }
}

TEST(SampleSet, SingleSamplePercentilesAreTheSample)
{
    SampleSet s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 42.0);
}

} // namespace
} // namespace eval
