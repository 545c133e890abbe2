/**
 * @file
 * eval_prof: analyze span profiles (profile.json) from the span
 * tracer and the shard fleet merge.
 *
 *   eval_prof tree PROFILE [--bottom-up] [--top=N]
 *       top-down call tree (children sorted by inclusive time), or
 *       with --bottom-up a leaf-centric view: spans ranked by total
 *       self time, each listing the call paths that produced it
 *   eval_prof flame PROFILE [--out=FILE]
 *       collapsed-stack lines ("a;b;c <self_us>") in Brendan Gregg's
 *       flamegraph.pl / speedscope format
 *   eval_prof diff OLD NEW [--top=N]
 *       per-span self-time deltas, largest absolute change first.
 *       A reading tool, not a gate: perfbench/ is the one
 *       performance measurement
 *
 * Exit codes: 0 ok, 2 usage or unreadable/malformed profile.
 *
 * The core is a library so tests can drive render/diff in-process.
 * Parsing reuses
 * shard/trace_merge.hh, so eval_prof accepts exactly what the tracer
 * writes and what the fleet merge emits.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "shard/trace_merge.hh"

namespace eval::prof {

/** One row of a profile diff (union of both profiles' paths). */
struct DiffRow
{
    std::string path;
    std::string name;
    std::uint64_t oldSelfNs = 0;
    std::uint64_t newSelfNs = 0;
    std::int64_t deltaSelfNs = 0; ///< new - old
    std::uint64_t oldCount = 0;
    std::uint64_t newCount = 0;
};

/** "1.234s" / "56.7ms" / "89.0us" / "123ns". */
std::string formatNs(std::uint64_t ns);

/** Top-down (or bottom-up) self-time tree; @p topN > 0 caps the
 *  printed rows (a trailing "... (N more)" line notes the cut). */
std::string renderTree(const SpanProfile &profile, bool bottomUp,
                       int topN);

/** Collapsed-stack flamegraph lines: one "path self_us" line per
 *  bucket with nonzero self time, sorted by path. */
std::string collapsedStacks(const SpanProfile &profile);

/** Self-time deltas over the union of paths, sorted by |delta|
 *  descending (ties by path). */
std::vector<DiffRow> diffProfiles(const SpanProfile &oldProfile,
                                  const SpanProfile &newProfile);

/** Render @p rows as a table; @p topN > 0 caps the rows. */
std::string renderDiff(const std::vector<DiffRow> &rows, int topN);

/** CLI entry point; returns the process exit code. */
int runEvalProf(const std::vector<std::string> &args);

} // namespace eval::prof
