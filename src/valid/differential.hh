/**
 * @file
 * Differential-testing driver: runs one validation experiment serially
 * and on thread pools of other sizes (2/4/8 workers), which must not
 * change the answer, and asserts bit-identical metric files.  This is
 * the executable form of the repo's determinism contract: parallel
 * fan-out is a pure optimization.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "valid/experiments.hh"

namespace eval {

/** One configuration-vs-reference comparison. */
struct DifferentialCheck
{
    std::string label;    ///< e.g. "threads=4"
    bool identical = false;
    std::string detail;   ///< first differing metrics when not identical
};

/** Everything one differential run produced. */
struct DifferentialReport
{
    std::string experiment;
    std::vector<DifferentialCheck> checks;

    bool allIdentical() const;
    /** Multi-line human-readable summary (for assertion messages). */
    std::string summary() const;
};

/**
 * Run @p experiment serially (threads=1) as the reference, then once
 * per entry in @p threadCounts, comparing each rerun bit-for-bit
 * against the reference.  The global pool size is restored before
 * returning.
 */
DifferentialReport
runDifferential(const std::string &experiment,
                const std::vector<std::size_t> &threadCounts = {2, 4, 8},
                const ExperimentTweaks &tweaks = {});

} // namespace eval

