/**
 * @file
 * Phase 1 of the semantic analyzer: a lightweight per-file index.
 *
 * buildFileIndex() parses one translation unit (token-level, over the
 * blanked Scan — no preprocessor, no full C++ grammar) into the facts
 * the project-wide passes need:
 *
 *  - include edges (quoted and angled, with line numbers),
 *  - std::memory_order uses (the atomics audit keys on `relaxed`),
 *  - parallelFor/parallelMap call regions with the lambda's capture
 *    list, parameter names, and blanked body text.
 *
 * Phase 2 (passes.hh) runs project-wide over the FileIndex records.
 *
 * The index is deliberately approximate where C++ is undecidable at
 * the token level (macro-generated code, template metaprogramming);
 * every consumer treats absence of evidence as "no finding", so the
 * approximation can only under-report, never spray false positives
 * from misparsed constructs.
 */

#pragma once

#include <string>
#include <vector>

#include "source_scan.hh"
#include "suppress.hh"

namespace eval::lint {

struct IncludeSite
{
    std::string path; ///< as written between the quotes/brackets
    int line = 1;
    bool angled = false; ///< #include <...> (system/library header)
};

struct AtomicSite
{
    std::string order; ///< relaxed, acquire, release, acq_rel, seq_cst,
                       ///< consume
    int line = 1;
};

struct ParallelRegion
{
    std::string entry; ///< parallelFor | parallelMap
    std::string captures;             ///< lambda capture list text
    std::vector<std::string> params;  ///< lambda parameter names
    std::string body;    ///< blanked lambda body (between its braces)
    std::size_t bodyOffset = 0; ///< body start offset in the file
};

struct FileIndex
{
    std::string relPath;
    std::string module; ///< first dir under src/ ("" if not src/)
    FileMarkers markers;
    std::vector<std::size_t> lineStart; ///< for offset -> line mapping

    /** 1-based line of a file offset (e.g. region bodyOffset + k). */
    int lineAt(std::size_t offset) const;

    std::vector<IncludeSite> includes;
    std::vector<AtomicSite> atomics;
    std::vector<ParallelRegion> regions;
};

/** Module of a src-relative path ("src/util/fft.cc" -> "util";
 *  "" when the path is not under src/ or sits directly in src/). */
std::string moduleOf(const std::string &relPath);

/** Build the index for one file.  @p scan must be scanSource(content)
 *  for the same content; markers come from parseSuppressions so the
 *  comment stream is parsed once. */
FileIndex buildFileIndex(const std::string &relPath,
                         const std::string &content, const Scan &scan,
                         const FileMarkers &markers);

/** Convenience overload for tests: scans and parses markers itself
 *  (marker diagnostics are discarded). */
FileIndex buildFileIndex(const std::string &relPath,
                         const std::string &content);

} // namespace eval::lint
