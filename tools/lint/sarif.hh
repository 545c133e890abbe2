/**
 * @file
 * SARIF 2.1.0 export.
 *
 * toSarif() renders the run's findings as a minimal, schema-valid
 * SARIF document: one run, the eval-lint driver with its full rule
 * catalog (so viewers can show help text for rules with no hits),
 * and one result per finding with a physical location relative to
 * SRCROOT.
 */

#pragma once

#include <string>
#include <vector>

#include "lint.hh"

namespace eval::lint {

/** Render @p diags as a SARIF 2.1.0 document.  @p rootUri is the
 *  absolute file:// URI of the lint root, used as the SRCROOT
 *  originalUriBaseId ("" to omit). */
std::string toSarif(const std::vector<Diagnostic> &diags,
                    const std::string &rootUri);

} // namespace eval::lint
