/**
 * @file
 * Typed readers for EVAL_* environment variables.  The experiment
 * knobs (EVAL_CHIPS, EVAL_SEED, EVAL_FAST, EVAL_APPS, EVAL_SIM_INSTS)
 * are read in one place, ExperimentConfig::fromEnv
 * (core/environment.hh).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eval {

/** Read an integer env var, or return fallback when unset/invalid. */
std::int64_t envInt(const char *name, std::int64_t fallback);

/** Read a double env var, or return fallback when unset/invalid. */
double envDouble(const char *name, double fallback);

/** Read a string env var, or return fallback when unset. */
std::string envString(const char *name, const std::string &fallback);

/** Read a boolean ("1"/"true"/"yes") env var. */
bool envBool(const char *name, bool fallback);

/** Whether an env var is set to a non-empty value. */
bool envHas(const char *name);

/** Split a comma-separated string into trimmed non-empty tokens. */
std::vector<std::string> splitCsvList(const std::string &s);

} // namespace eval

