/**
 * @file
 * Umbrella header for the EVAL library: include this to get the whole
 * public API (variation modeling, timing-error models, power/thermal,
 * the core simulator, workloads, and the adaptation framework).  The
 * multicore layer sits above core; include cmp/cmp_system.hh for it.
 */

#pragma once

#include "arch/core.hh"
#include "core/area_model.hh"
#include "core/characterization.hh"
#include "core/controller.hh"
#include "core/environment.hh"
#include "core/eval_params.hh"
#include "core/fuzzy_adaptation.hh"
#include "core/optimizer.hh"
#include "core/perf_model.hh"
#include "core/retiming.hh"
#include "core/subsystem_model.hh"
#include "fuzzy/fuzzy_controller.hh"
#include "fuzzy/regressors.hh"
#include "kernels/alpha_power.hh"
#include "phase/phase_detector.hh"
#include "phase/phase_table.hh"
#include "power/knobs.hh"
#include "power/power_model.hh"
#include "power/vt0_calibration.hh"
#include "thermal/thermal_model.hh"
#include "timing/error_model.hh"
#include "timing/path_population.hh"
#include "util/config.hh"
#include "util/csv.hh"
#include "util/statistics.hh"
#include "util/table.hh"
#include "variation/chip.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

