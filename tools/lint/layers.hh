/**
 * @file
 * The layering-contract manifest: tools/lint/layers.toml.
 *
 * The manifest declares the allowed dependency DAG over the src/
 * modules.  It is the single source of truth for module boundaries.
 * Shape:
 *
 *     [modules.core]
 *     uses = ["arch", "util", ...]     # explicit allowed edges
 *
 * The layering pass (passes.hh) enforces it as the lay-* rules.
 *
 * The parser covers the TOML subset the manifest needs (tables,
 * string arrays over multiple lines, comments); anything else is a
 * parse error so the manifest cannot silently half-load.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

namespace eval::lint {

struct LayerEdge
{
    std::string to;
    int line = 0; ///< declaration line in layers.toml
};

struct ModuleContract
{
    int line = 0; ///< [modules.<name>] header line
    std::vector<LayerEdge> uses;
};

/** A structural problem in the manifest (reported as lay-manifest). */
struct ManifestError
{
    int line = 1;
    std::string message;
};

struct LayersManifest
{
    bool loaded = false;
    std::string path = "layers.toml"; ///< anchor of manifest findings
    std::map<std::string, ModuleContract> modules;
};

/**
 * Parse manifest text.  Structural problems (unknown syntax, edges to
 * undeclared modules, `uses` cycles) are appended to @p errors; the
 * caller turns them into lay-manifest findings.
 */
LayersManifest parseLayers(const std::string &text,
                           std::vector<ManifestError> &errors);

/**
 * Verify the declared `uses` edges form a DAG.  On a cycle, appends
 * one error naming the module chain.  (Called by parseLayers; exposed
 * for direct testing.)
 */
void checkLayerDag(const LayersManifest &manifest,
                   std::vector<ManifestError> &errors);

} // namespace eval::lint
