/**
 * @file
 * Inline suppression and file-marker machinery for eval-lint.
 *
 * The audited suppression syntax (line comments only):
 *
 *     // eval-lint: allow(<rule>[,<rule>...]) <justification>
 *
 * A suppression with no justification text, or naming an unknown or
 * non-suppressible rule, is itself a finding (lint-bad-suppression); a
 * suppression that matches no finding is also a finding
 * (lint-unused-suppression) so stale allowances cannot accumulate.
 *
 * Two file-scope markers ride on the same comment channel:
 *
 *     // eval-lint: hot-path <why>       widens perf-hot-alloc scope
 *     // eval-lint: counters-only <why>  exempts the file from the
 *                                        atomics-relaxed audit (its
 *                                        relaxed atomics are monotone
 *                                        counters off the model path)
 *
 * Both markers carry a justification like suppressions do; a bare
 * marker is a lint-bad-suppression.
 *
 * Rules prefixed `lint-` (the audit rules) and `lay-` (the layering
 * contract) are never inline-suppressible: a module edge belongs in
 * tools/lint/layers.toml, where the module boundary stays reviewable
 * in one place.
 */

#pragma once

#include <string>
#include <vector>

#include "source_scan.hh"

namespace eval::lint {

struct Diagnostic;

struct Suppression
{
    int line = 0;          ///< line the allow() comment sits on
    int coveredLine = 0;   ///< line whose findings it suppresses
    std::vector<std::string> rules;
    bool used = false;
};

/** File-scope markers parsed out of the comment stream. */
struct FileMarkers
{
    bool hotPath = false;
    bool countersOnly = false;
};

/** True iff @p rule may never be silenced by an inline allow(). */
bool inlineUnsuppressible(const std::string &rule);

/** Parse suppressions and markers out of the collected comments.
 *  Malformed ones (no rule list, unknown rule, missing justification)
 *  become lint-bad-suppression findings immediately. */
std::vector<Suppression> parseSuppressions(const Scan &scan,
                                           const std::string &relPath,
                                           std::vector<Diagnostic> &diags,
                                           FileMarkers &markers);

/** Drop suppressed findings, mark used suppressions, and report the
 *  unused ones.  @p diags holds every finding for @p relPath (token
 *  rules and project passes alike). */
void applySuppressions(std::vector<Diagnostic> &diags,
                       std::vector<Suppression> &supps,
                       const std::string &relPath);

} // namespace eval::lint
