/** Tests for fuzzy-controller persistence (the reserved-memory image). */

#include <sstream>

#include <gtest/gtest.h>

#include "fuzzy/fuzzy_controller.hh"

namespace eval {
namespace {

/** The controller APIs take spans; braced inputs need a container. */
using V = std::vector<double>;

TEST(Serialization, NormalizerRoundTrip)
{
    InputNormalizer n;
    n.fit({{0.0, 5.0, -2.0}, {10.0, 6.0, 2.0}});
    std::stringstream ss;
    n.save(ss);
    const InputNormalizer m = InputNormalizer::load(ss);
    EXPECT_EQ(m.dims(), 3u);
    const auto a = n.normalize(V{3.0, 5.5, 0.0});
    const auto b = m.normalize(V{3.0, 5.5, 0.0});
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_DOUBLE_EQ(a[j], b[j]);
}

TEST(Serialization, FuzzyControllerRoundTrip)
{
    FuzzyController fc(8, 2);
    Rng rng(1);
    for (int k = 0; k < 2000; ++k) {
        const double a = rng.uniform(), b = rng.uniform();
        fc.train(V{a, b}, a + b, 0.04, rng);
    }

    std::stringstream ss;
    fc.save(ss);
    const FuzzyController copy = FuzzyController::load(ss);
    EXPECT_EQ(copy.numRules(), fc.numRules());
    EXPECT_EQ(copy.numInputs(), fc.numInputs());
    EXPECT_TRUE(copy.fullySeeded());

    Rng query(2);
    for (int k = 0; k < 100; ++k) {
        const std::vector<double> x{query.uniform(), query.uniform()};
        EXPECT_DOUBLE_EQ(copy.infer(x), fc.infer(x));
    }
}

TEST(Serialization, TrainedControllerRoundTrip)
{
    TrainedController tc(8, 1);
    Rng rng(3);
    std::vector<std::vector<double>> in;
    std::vector<double> out;
    for (int k = 0; k < 1000; ++k) {
        const double x = rng.uniform(2.0, 6.0);
        in.push_back({x});
        out.push_back(3e9 + x * 1e8);
    }
    tc.train(in, out, 0.04, rng);

    std::stringstream ss;
    tc.save(ss);
    const TrainedController copy = TrainedController::load(ss);
    EXPECT_TRUE(copy.trained());
    for (double x : {2.5, 4.0, 5.5})
        EXPECT_DOUBLE_EQ(copy.predict(V{x}), tc.predict(V{x}));
}

TEST(Serialization, RejectsGarbage)
{
    std::stringstream ss("not a controller image at all");
    EXPECT_DEATH(
        { FuzzyController::load(ss); }, "not a controller image");
}

TEST(Serialization, PartiallySeededControllerRoundTrips)
{
    FuzzyController fc(8, 1);
    Rng rng(4);
    fc.train(V{0.1}, 1.0, 0.04, rng);
    fc.train(V{0.9}, 2.0, 0.04, rng);
    EXPECT_FALSE(fc.fullySeeded());

    std::stringstream ss;
    fc.save(ss);
    const FuzzyController copy = FuzzyController::load(ss);
    EXPECT_FALSE(copy.fullySeeded());
    EXPECT_DOUBLE_EQ(copy.infer(V{0.1}), fc.infer(V{0.1}));
}

} // namespace
} // namespace eval
