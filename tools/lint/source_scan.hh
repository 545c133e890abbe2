/**
 * @file
 * Shared token-level source scanning for eval-lint.
 *
 * scanSource() blanks out comments and string/char literals so token
 * matching never fires inside them, while collecting `//`-comment text
 * per line for suppression and marker parsing.  The blanked copy has
 * the same length and the same newlines as the input, so offsets and
 * line numbers map one-to-one between the two.
 *
 * Both the phase-1 token rules (lint.cc) and the phase-1 semantic
 * indexer (index.cc) run over the same Scan, so a file is read and
 * state-machine-scanned exactly once per lint run.
 */

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace eval::lint {

struct Scan
{
    std::string code; ///< literals/comments blanked
    /** line -> `//`-comment text.  Only line comments can carry
     *  suppressions; block/doxygen comments are prose and may quote
     *  the suppression syntax without activating it.  The same
     *  applies to string literals (including raw strings): text that
     *  merely *mentions* `eval-lint: allow(...)` as data never
     *  activates or malforms a suppression. */
    std::map<int, std::string> lineComments;
    std::vector<std::size_t> lineStart; ///< offset of each line's start
};

/** Run the comment/string-stripping state machine over @p in. */
Scan scanSource(const std::string &in);

/** 1-based line number of @p offset in the scanned source. */
int lineOf(const Scan &scan, std::size_t offset);

/** Identifier character ([A-Za-z0-9_]). */
bool identChar(char c);

/** Find boundary-checked occurrences of @p name in blanked code.  With
 *  @p callParen the next non-space char must be '(' (a call site). */
std::vector<std::size_t> findTokens(const std::string &code,
                                    const std::string &name,
                                    bool callParen);

/** Strip leading/trailing whitespace. */
std::string trimmed(std::string s);

/** True iff @p line holds no code tokens (blank or comment-only). */
bool lineIsBlankCode(const Scan &scan, int line);

/** s starts with prefix. */
bool startsWith(const std::string &s, const char *prefix);

/** Offset of the closer matching the opener at @p open for a bracket
 *  pair ('('/')', '{'/'}', '['/']'), or @p open itself when unbalanced
 *  (partial file). */
std::size_t matchBracket(const std::string &code, std::size_t open,
                         char opener, char closer);

} // namespace eval::lint
