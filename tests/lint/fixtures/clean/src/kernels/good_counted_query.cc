// Fixture: a per-query kernel that counts through a Counter (per-thread
// slots) and keeps one audited once-per-object id source.
#include <atomic>
#include <cstdint>

namespace fixture {

struct Counter
{
    void inc(std::uint64_t n = 1);
};

Counter &queryCounter();

std::uint64_t
nextId()
{
    static std::atomic<std::uint64_t> next{1};
    // eval-lint: allow(atomics-relaxed, atomics-hot-rmw) fixture: one id
    // per constructed object, never one per query.
    return next.fetch_add(1, std::memory_order_relaxed);
}

double
query(double x)
{
    queryCounter().inc();
    std::uint64_t local = 0;
    ++local; // a plain local is private to its thread
    return x + static_cast<double>(local);
}

} // namespace fixture
