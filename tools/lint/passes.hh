/**
 * @file
 * Phase 2 of the semantic analyzer: project-wide passes over the
 * FileIndex records built in phase 1.
 *
 * Passes and their rule ids:
 *
 *  - layering contract (lay-edge, lay-module, lay-unused-edge,
 *    lay-manifest): every cross-module include under src/ must match
 *    an explicit `uses` edge in tools/lint/layers.toml; declared
 *    edges must form a DAG and must all be exercised.  Inline
 *    suppressions are rejected for lay-* rules — the manifest is the
 *    only door.
 *  - atomics audit (atomics-relaxed): every memory_order_relaxed in
 *    src/ needs an audited inline allowance, unless the file carries
 *    the `eval-lint: counters-only <why>` marker (monotone counters
 *    off the model path, e.g. src/stats/stat_registry.hh).
 *  - determinism data-flow (det-par-capture): a lambda passed to
 *    parallelFor/parallelMap that captures by reference and then
 *    grows/mutates the captured object order-dependently
 *    (push_back/insert/erase/...) is flagged; slot-indexed writes
 *    (out[i] = ...) and merge-type folds stay silent.
 */

#pragma once

#include <string>
#include <vector>

#include "index.hh"
#include "layers.hh"

namespace eval::lint {

struct Diagnostic;

struct ProjectIndex
{
    std::vector<FileIndex> files;
};

/**
 * Run every project pass.  @p manifest may be unloaded
 * (manifest.loaded == false) when the tree has no layers.toml; the
 * layering pass is skipped then, the atomics and determinism passes
 * still run.  @p manifestErrors are the parse errors from
 * parseLayers, turned into lay-manifest findings here, anchored at
 * manifest.path.  Findings are appended for every file; the caller
 * suppresses them.
 */
std::vector<Diagnostic> runProjectPasses(
    const ProjectIndex &index, const LayersManifest &manifest,
    const std::vector<ManifestError> &manifestErrors);

} // namespace eval::lint
