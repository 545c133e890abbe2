/**
 * @file
 * eval-lint: repo-specific static analysis for determinism, numerics,
 * and hygiene invariants.
 *
 * The simulator promises bit-identical Monte Carlo results at any
 * thread count, exact-bit PE cache hits, and goldens pinned to the
 * paper's numbers.  Those invariants are easy to break silently: one
 * stray rand() call, one iteration over an unordered container feeding
 * a float accumulator, one shared Rng drawn from inside a parallelFor.
 * The golden tier catches such breaks end-to-end; this pass catches
 * them at the line that introduces them.
 *
 * The analyzer is token-based (comments and string literals are
 * stripped before matching), walks a tree rooted at Options::root, and
 * scopes each rule by the file's path relative to that root — e.g.
 * hyg-iostream only applies under src/, and det-entropy exempts
 * src/util/random (the entropy abstraction itself).  Findings can be
 * suppressed inline with an audited comment:
 *
 *     // eval-lint: allow(<rule>[,<rule>...]) <justification>
 *
 * A suppression with no justification text, or naming an unknown
 * rule, is itself a finding (lint-bad-suppression); a suppression
 * that matches no finding is also a finding (lint-unused-suppression)
 * so stale allowances cannot accumulate.
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
    std::string rule;    ///< rule id, e.g. "det-entropy"
    std::string message;

    bool operator==(const Diagnostic &) const = default;
};

/** Catalog entry: rule id plus a one-line summary (--list-rules). */
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
     *  The root itself is canonicalized (so `--root tree/`,
     *  `--root tree` and a symlink to the tree behave identically),
     *  but files below it keep their lexical relative paths — a
     *  symlinked subdirectory is scanned under the path it is
     *  reachable by, not its target, so rule scoping never changes
     *  with the filesystem layout behind the link. */
    std::filesystem::path root;

    /** Subtrees or files (relative to root) to scan.  Empty means the
     *  default set: src, bench, tests, examples, tools.  The semantic
     *  passes always index the full default set for context; findings
     *  are only *emitted* for the requested paths, so a changed-files
     *  run (scripts/precommit.sh) sees project-wide facts without
     *  reporting out-of-scope files. */
    std::vector<std::string> paths;

    /** Relative paths containing any of these substrings are skipped
     *  (e.g. "tests/lint/fixtures" when linting the real tree). */
    std::vector<std::string> excludes;

    /** Layering manifest.  Empty = auto-discover
     *  <root>/tools/lint/layers.toml, then <root>/layers.toml; when
     *  neither exists the layering and exception-contract passes are
     *  skipped.  A relative path here resolves against root. */
    std::filesystem::path layersFile;
};

/**
 * Lint every .cc/.cpp/.hh/.h file under the requested paths: the
 * token-level rules per file, then the project-wide semantic passes
 * (layering, include cycles, exception contracts, atomics audit,
 * determinism data-flow) over the whole indexed tree.  Returns
 * findings sorted by (file, line, rule) so output is independent of
 * directory-iteration order.  On I/O failure
 * (unreadable root, path, or file), returns empty and sets *error if
 * non-null.
 */
std::vector<Diagnostic> runLint(const Options &opts,
                                std::string *error = nullptr);

/**
 * Lint a single in-memory source: the token-level rules plus the
 * semantic passes that make sense for one file in isolation (atomics
 * audit, determinism data-flow).  @p relPath is the path the file
 * would have relative to the tree root; it drives rule scoping.
 * Exposed so tests can exercise rules without touching the disk.
 */
std::vector<Diagnostic> lintSource(const std::string &relPath,
                                   const std::string &content);

/** Process exit code for a finding set: 0 clean, 1 findings. */
int exitCodeFor(const std::vector<Diagnostic> &diags);

/** "file:line: [rule] message" */
std::string formatDiagnostic(const Diagnostic &d);

/** JSON array of findings (for the CI report artifact). */
std::string toJson(const std::vector<Diagnostic> &diags);

} // namespace eval::lint
