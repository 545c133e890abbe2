// Fixture: det-par-capture applies to bench/ as well as src/ — a
// by-reference accumulator folded in schedule order.
#include <cstddef>

namespace fixture {

template <typename Fn>
void
parallelFor(std::size_t first, std::size_t last, std::size_t grain, Fn &&fn)
{
    (void)grain;
    for (std::size_t i = first; i < last; ++i)
        fn(i);
}

double
racySweep(std::size_t chips)
{
    double sum = 0.0;
    parallelFor(0, chips, 1, [&](std::size_t i) {
        sum += static_cast<double>(i); // det-par-capture
    });
    return sum;
}

} // namespace fixture
