/**
 * @file
 * Per-subsystem timing-error model: PE(f) curves derived from a path
 * population (VATS, Sec 2.2), and the series-failure pipeline
 * composition of Eq 4.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "kernels/alpha_power.hh"
#include "kernels/pe_surface.hh"
#include "timing/path_population.hh"
#include "variation/process_params.hh"

namespace eval {

/**
 * Error-rate model for one subsystem on one chip.
 *
 * The population's reference delays are fixed at construction; the
 * voltage/bias/temperature dependence enters through a common delay
 * scale evaluated with the subsystem's mean Vt0/Leff (paths within a
 * subsystem are spatially close, so their systematic variation moves
 * together; per-path differences are already baked into the reference
 * delays).  Construction compiles the population into a PeSurface
 * (kernels/pe_surface.hh): precomputed PE levels, a bucketed delay
 * index, and hoisted corner constants make PE queries O(1)-ish and
 * budget queries O(log paths).
 */
class StageErrorModel
{
  public:
    StageErrorModel(const ProcessParams &params, PathPopulation pop);

    /** Delay multiplier vs the design corner at conditions @p op. */
    double delayScale(const OperatingConditions &op) const;

    /**
     * Probability that one access to this subsystem suffers a timing
     * error when clocked with @p clockPeriod seconds at @p op.  Every
     * call evaluates the delay scale (PeSurface::scaleExact, the one
     * numeric path benches, library callers and the golden record
     * share); there is no memo, so a caller that repeats a query pays
     * for it again (DESIGN 5g: remove the repeat at the caller).
     */
    double errorRatePerAccess(double clockPeriod,
                              const OperatingConditions &op) const;

    /**
     * The PE lookup behind errorRatePerAccess, given the delay scale
     * (delayScale(op)) of the conditions: callers that probe many
     * periods at one (Vdd, Vbb, T) compute the scale once and pass it
     * here.  errorRateAtScale(p, delayScale(op)) is bit-identical to
     * errorRatePerAccess(p, op).  Not counted in timing.error_evals:
     * it is a bucket lookup, no scale evaluation.
     */
    double errorRateAtScale(double clockPeriod, double scale) const;

    /** Slowest path delay in seconds at @p op. */
    double maxDelay(const OperatingConditions &op) const;

    /** Error-free frequency at @p op (1 / maxDelay). */
    double fvar(const OperatingConditions &op) const;

    /**
     * Highest frequency whose per-access error rate does not exceed
     * @p peBudget at @p op (the per-stage step of the Freq algorithm).
     */
    double maxFrequencyForErrorRate(double peBudget,
                                    const OperatingConditions &op) const;

    StageType type() const { return type_; }
    double vt0Mean() const { return vt0Mean_; }
    double leffMean() const { return leffMean_; }
    std::size_t numPaths() const { return surface_.numPaths(); }

    /** The compiled PE surface (kernel-layer tests compare against
     *  legacy expressions through this). */
    const PeSurface &surface() const { return surface_; }

  private:
    const ProcessParams params_;
    StageType type_;
    double vt0Mean_;
    double leffMean_;
    /** Compiled levels/index/constants (owns the sorted delays). */
    PeSurface surface_;
};

/**
 * Eq 4: processor error rate per instruction for an n-stage pipeline,
 * given each stage's per-access error rate and its activity factor
 * rho_i (accesses per instruction).
 */
double processorErrorRate(const std::vector<double> &perAccessRates,
                          const std::vector<double> &rho);

} // namespace eval
