// Fixture: suppression misuse.  Each case must surface as
// lint-bad-suppression, and the finding it tried to hide must
// still be reported.
#include <unordered_map>

namespace fixture {

int
tables()
{
    // Case 1: no justification text at all.
    std::unordered_map<int, int> a; // eval-lint: allow(det-unordered)

    // Case 2: unknown rule id.
    std::unordered_map<int, int> b; // eval-lint: allow(not-a-rule) because

    // Case 3: empty rule list.
    std::unordered_map<int, int> c; // eval-lint: allow() shrug

    return static_cast<int>(a.size() + b.size() + c.size());
}

} // namespace fixture
