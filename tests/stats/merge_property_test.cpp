/** Property tests for the mergeable accumulators: Counter /
 *  Histogram / SampleSet merge() must be associative and
 *  order-preserving, so any split of a serial accumulation into
 *  contiguous slices — at any split points, merged in any
 *  association — reproduces the serial result *exactly* (u64 /
 *  bit-for-bit doubles, not approximately). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/stat_registry.hh"
#include "util/random.hh"
#include "util/statistics.hh"

namespace eval {
namespace {

/** Random strictly-increasing split points partitioning [0, n). */
std::vector<std::size_t>
randomSplits(Rng &rng, std::size_t n, std::size_t parts)
{
    std::vector<std::size_t> cuts{0};
    for (std::size_t i = 1; i < parts; ++i)
        cuts.push_back(rng.next() % (n + 1));
    cuts.push_back(n);
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

TEST(MergePropertyTest, CounterMergeIsExactAndAssociative)
{
    Rng rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint64_t> values(40);
        for (auto &v : values)
            v = rng.next() % 1000000;

        Counter serial;
        for (std::uint64_t v : values)
            serial.inc(v);

        const auto cuts = randomSplits(rng, values.size(), 4);
        std::vector<std::unique_ptr<Counter>> parts;
        for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
            parts.push_back(std::make_unique<Counter>());
            for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i)
                parts.back()->inc(values[i]);
        }

        // Left fold: ((p0 + p1) + p2) + p3.
        Counter left;
        for (const auto &p : parts)
            left.merge(*p);

        // Right fold: p0 + (p3 + p2 + p1) — different association
        // and a different inner order; a u64 sum cannot tell.
        Counter tail;
        for (std::size_t p = parts.size(); p-- > 1;)
            tail.merge(*parts[p]);
        Counter right;
        right.merge(*parts[0]);
        right.merge(tail);

        EXPECT_EQ(left.value(), serial.value());
        EXPECT_EQ(right.value(), serial.value());
    }
}

TEST(MergePropertyTest, HistogramMergeMatchesSerialExactly)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> xs(60);
        for (auto &x : xs)
            x = rng.uniform(-0.2, 1.2); // exercise the clamp bins too

        Histogram serial(0.0, 1.0, 16);
        for (double x : xs)
            serial.add(x, 1.0); // campaign adds are always weight-1

        const auto cuts = randomSplits(rng, xs.size(), 5);
        Histogram merged(0.0, 1.0, 16);
        for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
            Histogram part(0.0, 1.0, 16);
            for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i)
                part.add(xs[i], 1.0);
            merged.merge(part);
        }

        ASSERT_EQ(merged.bins(), serial.bins());
        for (std::size_t b = 0; b < serial.bins(); ++b) {
            // Integer-valued weights below 2^53: bin-wise double
            // addition is exact, so bit-for-bit equality holds.
            EXPECT_EQ(merged.count(b), serial.count(b)) << "bin " << b;
        }
        for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
            EXPECT_EQ(merged.quantile(q), serial.quantile(q))
                << "quantile " << q;
    }
}

TEST(MergePropertyTest, SampleSetMergePreservesOrder)
{
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> xs(48);
        for (auto &x : xs)
            x = rng.uniform();

        SampleSet serial;
        for (double x : xs)
            serial.add(x);

        const auto cuts = randomSplits(rng, xs.size(), 4);
        SampleSet merged;
        for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
            SampleSet part;
            for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i)
                part.add(xs[i]);
            merged.merge(part);
        }

        // Ordered append: the merged sample vector IS the serial one,
        // element for element — the strongest possible equivalence
        // (every derived statistic follows for free).
        ASSERT_EQ(merged.samples().size(), serial.samples().size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            EXPECT_EQ(merged.samples()[i], serial.samples()[i]);
        for (double p : {0.5, 0.9, 0.99})
            EXPECT_EQ(merged.percentile(p), serial.percentile(p));
        EXPECT_EQ(merged.mean(), serial.mean());
    }
}

TEST(MergePropertyTest, SampleSetMergeAssociativity)
{
    Rng rng(5);
    std::vector<double> xs(30);
    for (auto &x : xs)
        x = rng.uniform();

    // (a + b) + c  vs  a + (b + c) with contiguous a, b, c.
    SampleSet a, b, c;
    for (std::size_t i = 0; i < 10; ++i)
        a.add(xs[i]);
    for (std::size_t i = 10; i < 20; ++i)
        b.add(xs[i]);
    for (std::size_t i = 20; i < 30; ++i)
        c.add(xs[i]);

    SampleSet leftAssoc = a;
    leftAssoc.merge(b);
    leftAssoc.merge(c);

    SampleSet bc = b;
    bc.merge(c);
    SampleSet rightAssoc = a;
    rightAssoc.merge(bc);

    ASSERT_EQ(leftAssoc.samples().size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(leftAssoc.samples()[i], xs[i]);
        EXPECT_EQ(rightAssoc.samples()[i], xs[i]);
    }
}

} // namespace
} // namespace eval
