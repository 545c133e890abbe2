/**
 * @file
 * Umbrella header for the observability subsystem: the hierarchical
 * stat registry (exact counters) and the adaptation
 * decision trace.  Region timing lives in src/trace (ScopedSpan).
 */

#pragma once

#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"

