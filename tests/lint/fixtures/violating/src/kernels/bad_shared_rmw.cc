// Fixture: raw atomic RMWs on a per-query path.  The counters-only
// marker exempts the relaxed orders from atomics-relaxed, but not the
// shared-line writes from atomics-hot-rmw.
// eval-lint: counters-only fixture: monotone tallies nothing on the
// model path reads back.
#include <atomic>
#include <cstdint>

namespace fixture {

std::atomic<std::uint64_t> queries{0};
std::atomic<int> inFlight{0};

double
query(double x)
{
    queries.fetch_add(1, std::memory_order_relaxed); // atomics-hot-rmw
    ++inFlight;                                      // atomics-hot-rmw
    const double y = x * 2.0;
    inFlight -= 1;                                   // atomics-hot-rmw
    return y + static_cast<double>(queries.load(std::memory_order_relaxed));
}

} // namespace fixture
