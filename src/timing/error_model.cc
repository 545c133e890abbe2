#include "timing/error_model.hh"

#include <algorithm>
#include <cmath>

#include "stats/stat_registry.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

namespace {

/** Sorted reference delays of a population (surface input). */
std::vector<double>
sortedDelays(PathPopulation &pop)
{
    EVAL_ASSERT(!pop.paths.empty(), "error model needs paths");
    std::sort(pop.paths.begin(), pop.paths.end(),
              [](const TimingPath &a, const TimingPath &b) {
                  return a.delayRef < b.delayRef;
              });
    std::vector<double> delays(pop.paths.size());
    for (std::size_t i = 0; i < delays.size(); ++i)
        delays[i] = pop.paths[i].delayRef;
    return delays;
}

/** survivalLog[i] = log P(no path in [i, n) fails), size n+1. */
std::vector<double>
survivalLogOf(const PathPopulation &pop)
{
    const std::size_t n = pop.paths.size();
    std::vector<double> survivalLog(n + 1, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        const double s =
            clamp(pop.paths[i].sensitization, 0.0, 1.0 - 1e-12);
        survivalLog[i] = survivalLog[i + 1] + std::log1p(-s);
    }
    return survivalLog;
}

/** Builds the surface from a population (sorts it in place first). */
PeSurface
makeSurface(const ProcessParams &params, PathPopulation &pop)
{
    std::vector<double> delays = sortedDelays(pop);
    return PeSurface(params, pop.vt0Mean, pop.leffMean, std::move(delays),
                     survivalLogOf(pop));
}

} // namespace

StageErrorModel::StageErrorModel(const ProcessParams &params,
                                 PathPopulation pop)
    : params_(params), type_(pop.type), vt0Mean_(pop.vt0Mean),
      leffMean_(pop.leffMean), surface_(makeSurface(params, pop))
{
}

double
StageErrorModel::delayScale(const OperatingConditions &op) const
{
    return surface_.scaleExact(op);
}

double
StageErrorModel::errorRatePerAccess(double clockPeriod,
                                    const OperatingConditions &op) const
{
    static Counter &evals =
        StatRegistry::global().counter("timing.error_evals");
    EVAL_ASSERT(clockPeriod > 0.0, "clock period must be positive");
    evals.inc();
    return errorRateAtScale(clockPeriod, surface_.scaleExact(op));
}

double
StageErrorModel::errorRateAtScale(double clockPeriod, double scale) const
{
    if (scale >= kNonFunctionalDelayFactor)
        return 1.0;
    const double threshold = clockPeriod / scale;
    return surface_.level(surface_.upperBoundIndex(threshold));
}

double
StageErrorModel::maxDelay(const OperatingConditions &op) const
{
    return surface_.delays().back() * delayScale(op);
}

double
StageErrorModel::fvar(const OperatingConditions &op) const
{
    const double d = maxDelay(op);
    return d > 0.0 ? 1.0 / d : 0.0;
}

double
StageErrorModel::maxFrequencyForErrorRate(double peBudget,
                                          const OperatingConditions &op) const
{
    EVAL_ASSERT(peBudget >= 0.0, "PE budget must be non-negative");
    const double scale = delayScale(op);
    if (scale >= kNonFunctionalDelayFactor)
        return 0.0;

    // First failing path index within budget: paths [lowest, n) may
    // fail and PE stays <= peBudget.  The legacy code walked the
    // sorted delays from the slowest down with an exp per step; the
    // surface's precomputed monotone PE levels turn that into a
    // partition point (identical result, including the tie rule).
    const std::size_t lowest = surface_.firstIndexWithinBudget(peBudget);
    // The clock period must still cover path lowest-1 (and all faster
    // ones).
    const std::vector<double> &delays = surface_.delays();
    const double coveredDelay = lowest == 0 ? 0.0 : delays[lowest - 1];
    if (coveredDelay <= 0.0) {
        // Entire population may fail within budget; frequency is
        // unbounded by this stage. Return a large sentinel.
        return 1.0e12;
    }
    // Tiny margin so the rounded period never re-includes the covered
    // path through floating-point noise.
    return 1.0 / (coveredDelay * scale * (1.0 + 1e-9));
}

double
processorErrorRate(const std::vector<double> &perAccessRates,
                   const std::vector<double> &rho)
{
    EVAL_ASSERT(perAccessRates.size() == rho.size(),
                "stage rate/activity size mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < perAccessRates.size(); ++i)
        total += rho[i] * perAccessRates[i];
    return total;
}

} // namespace eval
