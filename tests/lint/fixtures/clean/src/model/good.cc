// Fixture: a justified (therefore used) suppression for an unordered
// container that never reaches an accumulation path.
#include <cstddef>
#include <unordered_set>

namespace fixture {

bool
seenBefore(std::size_t n)
{
    // eval-lint: allow(det-unordered) membership probe only: the set
    // is never iterated, so its order cannot reach results or output.
    static std::unordered_set<std::size_t> seen;
    return !seen.insert(n).second;
}

} // namespace fixture
