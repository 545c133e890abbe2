/**
 * @file
 * The paper experiments eval_paper runs: one function per reproduced
 * table, figure or ablation, each printing its ASCII tables / CSV
 * series to stdout.  Every function draws from the one
 * ExperimentContext the driver builds (DESIGN.md Sec 5), so the app
 * suite is characterized and each (chip, core, caps) FC is trained
 * once per run, not once per figure.  The experiment loops themselves
 * live in core (ExperimentContext::sweep for Figures 10-12,
 * adaptPopulation for Fig 13), where the goldens pin them.
 *
 * The single-chip studies (fig01, fig08, fig09, pemax, fc_training,
 * controllers) read chip 0 only; chip i is a pure function of
 * (seed, i), so they print the same bytes at any population size.
 */

#pragma once

#include "core/eval.hh"
#include "exec/thread_pool.hh"

namespace eval {

void fig01Vats(ExperimentContext &ctx);
void fig02Techniques(ExperimentContext &ctx);
void ablationChecker(ExperimentContext &ctx);
void ablationPeMax(ExperimentContext &ctx);
void ablationPhase(ExperimentContext &ctx);
void areaOverhead(ExperimentContext &ctx);
void ablationFcTraining(ExperimentContext &ctx);
void fig08Tradeoff(ExperimentContext &ctx);
void fig09Surfaces(ExperimentContext &ctx);
void fig10to12Sweep(ExperimentContext &ctx);
void fig13Outcomes(ExperimentContext &ctx);
void table2FuzzyAccuracy(ExperimentContext &ctx);
void ablationTechniques(ExperimentContext &ctx);
void relatedRetiming(ExperimentContext &ctx);
void ablationControllers(ExperimentContext &ctx);
void cmpMixes(ExperimentContext &ctx);

} // namespace eval
