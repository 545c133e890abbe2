// Fixture: a wall-clock read in the stats layer (det-wallclock).
// Stats count events; region timing belongs to src/trace spans.
#include <chrono>

namespace fixture {

long long
statsNowNs()
{
    return std::chrono::steady_clock::now() // det-wallclock
        .time_since_epoch()
        .count();
}

} // namespace fixture
