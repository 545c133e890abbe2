/**
 * @file
 * Phase 2 of the semantic analyzer: project-wide passes over the
 * FileIndex records built in phase 1.
 *
 * Passes and their rule ids:
 *
 *  - layering contract (lay-edge, lay-module, lay-unused-edge,
 *    lay-manifest): every cross-module include under src/ must match
 *    an explicit `uses` edge or a per-file exception in
 *    tools/lint/layers.toml; declared edges must form a DAG and must
 *    all be exercised.  Inline suppressions are rejected for lay-*
 *    rules — the manifest is the only door.
 *  - include cycles (lay-cycle): the file-level include graph over
 *    the indexed tree must be acyclic.
 *  - exception contracts (exc-contract): a `throw <Type>` site inside
 *    module M must name a type in M's `throws` list.  Intra-module
 *    transitive throws are covered by construction (every site in the
 *    module is checked, wherever it sits in the call graph); bare
 *    rethrows (`throw;`) pass through.
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

struct PassOptions
{
    /** Emit manifest-anchored findings (lay-unused-edge, lay-module
     *  for missing declarations) — true only for full-tree runs, so a
     *  changed-files-only lint never reports an edge as unused just
     *  because its users were out of scope. */
    bool fullTree = true;

    /** Manifest path relative to the root, for anchoring manifest
     *  findings ("" when no manifest was found). */
    std::string manifestRel;
};

/**
 * Run every project pass.  @p manifest may be unloaded
 * (manifest.loaded == false) when the tree has no layers.toml; the
 * layering and exception-contract passes are skipped then, the
 * atomics and determinism passes still run.  @p manifestErrors are
 * the parse errors from parseLayers, turned into lay-manifest
 * findings here.  Findings are appended for every file; the caller
 * scopes and suppresses them.
 */
std::vector<Diagnostic> runProjectPasses(
    const ProjectIndex &index, const LayersManifest &manifest,
    const std::vector<std::string> &manifestErrors,
    const PassOptions &opts);

} // namespace eval::lint
