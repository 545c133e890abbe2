// Fixture: a well-formed suppression with nothing to suppress must be
// reported as lint-unused-suppression so stale allowances are audited.
namespace fixture {

double
harmless()
{
    // eval-lint: allow(det-unordered) there is no unordered container
    // here, so this allowance is stale and must be flagged.
    const double x = 0.5;
    return x;
}

} // namespace fixture
