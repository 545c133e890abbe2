/**
 * @file
 * eval-lint: the repo's checks for contracts that neither the
 * compiler nor a test can see.
 *
 * The golden tier pins the paper's numbers byte for byte at 1 and 4
 * threads, and the sanitizer jobs catch races, so a rule earns its
 * place here only when a break would slip past both:
 *
 *  - module layering (lay-*): a header-only include crosses a module
 *    boundary without touching the CMake link graph;
 *  - hash order (det-unordered): an unordered container iterates in
 *    the same order on every run of one libstdc++ build, so a result
 *    that leaks that order matches its golden until the library moves;
 *  - schedule-order writes from a parallel body (det-par-capture);
 *  - relaxed atomics without an audit (atomics-relaxed);
 *  - heap allocation on a hot path (perf-hot-alloc).
 *
 * The analyzer is token-based (comments and string literals are
 * stripped before matching), walks a tree rooted at Options::root, and
 * scopes each rule by the file's path relative to that root.  Findings
 * can be suppressed inline with an audited comment (suppress.hh).
 *
 * The gate is the tier-1 test lint_test (LintTree.RealTreeIsClean).
 */

#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace eval::lint {

/** One finding, anchored to a file:line. */
struct Diagnostic
{
    std::string file;    ///< path relative to Options::root
    int line = 1;        ///< 1-based
    std::string rule;    ///< rule id, e.g. "det-unordered"
    std::string message;

    bool operator==(const Diagnostic &) const = default;
};

/** Catalog entry: rule id plus a one-line summary. */
struct RuleInfo
{
    std::string id;
    std::string summary;
};

/** All enforceable rules, in stable display order. */
const std::vector<RuleInfo> &ruleCatalog();

/** True iff @p id names a rule in the catalog (including the two
 *  lint-* audit rules, which are reported but never suppressible). */
bool isKnownRule(const std::string &id);

struct Options
{
    /** Tree root; rule path-scoping is computed relative to this.
     *  Scans src, bench, tests, examples and tools below it, and reads
     *  the layering manifest from tools/lint/layers.toml, else
     *  layers.toml (no manifest: the layering pass is skipped). */
    std::filesystem::path root;

    /** Relative paths containing any of these substrings are skipped
     *  (e.g. "tests/lint/fixtures" when linting the real tree). */
    std::vector<std::string> excludes;
};

/**
 * Lint every .cc/.cpp/.hh/.h file under the tree: the token-level
 * rules per file, then the project-wide passes (layering, atomics
 * audit, determinism data-flow) over the whole indexed tree.  Returns
 * findings sorted by (file, line, rule) so output is independent of
 * directory-iteration order.  On I/O failure (root not a directory,
 * unreadable file or manifest), returns empty and sets *error if
 * non-null.
 */
std::vector<Diagnostic> runLint(const Options &opts,
                                std::string *error = nullptr);

/**
 * Lint a single in-memory source: the token-level rules plus the
 * passes that need only this file (atomics audit, determinism
 * data-flow).  @p relPath is the path the file would have relative to
 * the tree root; it drives rule scoping.  Exposed so tests can
 * exercise rules without touching the disk.
 */
std::vector<Diagnostic> lintSource(const std::string &relPath,
                                   const std::string &content);

/** "file:line: [rule] message" */
std::string formatDiagnostic(const Diagnostic &d);

} // namespace eval::lint
