/**
 * @file
 * Precomputed PE(f) surface for one stage error model.
 *
 * The VATS error model answers "what fraction of accesses fail at
 * clock period Tc under conditions (Vdd, Vbb, T)?"  The legacy path
 * recomputed, on *every* query: the design-corner alpha-power
 * denominator (a model constant), the corner-normalization factor
 * (another constant), two `std::pow` calls, a binary search over the
 * path delays, and an `exp` over the survival log.  This class hoists
 * every model constant at construction and precomputes:
 *
 *  - `levels_[i]`  : the PE value when paths [i, n) fail, i.e.
 *    `1 - exp(survivalLog[i])`, evaluated once with the legacy
 *    expression so queries return bit-identical doubles;
 *  - a uniform bucket index over the sorted path delays turning the
 *    `upper_bound` into an O(1) lookup plus a short scan;
 *  - the hoisted corner constants (`denomCorner`, `atCorner`,
 *    amplified Vt0/Leff) of the delay-scale expression.
 *
 * `scaleExact` replays the legacy `delayScale` expression tree with
 * the constants hoisted — bit-identical results (hoisting a
 * subexpression that is recomputed from identical inputs cannot
 * change its bits; no FMA contraction at baseline -march).  It is the
 * only scale evaluator: every PE query, golden and bench alike, runs
 * the same exact numerics (DESIGN.md Sec 5g).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/alpha_power.hh"
#include "variation/process_params.hh"

namespace eval {

class PeSurface
{
  public:
    /**
     * @param delays      sorted reference path delays (ascending)
     * @param survivalLog survivalLog[i] = log P(no path in [i,n) fails),
     *                    size delays.size() + 1, nondecreasing
     */
    PeSurface(const ProcessParams &params, double vt0Mean, double leffMean,
              std::vector<double> delays,
              const std::vector<double> &survivalLog);

    /** Bit-identical replay of the legacy delayScale expression. */
    double scaleExact(const OperatingConditions &op) const;

    /** First index with delays[i] > threshold (== std::upper_bound). */
    std::size_t upperBoundIndex(double threshold) const;

    /** PE when paths [idx, n) fail: 1 - exp(survivalLog[idx]),
     *  precomputed with the legacy expression. */
    double level(std::size_t idx) const { return levels_[idx]; }

    /**
     * The index the legacy slowest-down budget walk produced: the
     * smallest i such that letting paths [i, n) fail keeps
     * PE <= peBudget.  O(log n) partition point over `levels_`,
     * whose monotonicity is verified at construction.
     */
    std::size_t firstIndexWithinBudget(double peBudget) const;

    const std::vector<double> &delays() const { return delays_; }
    std::size_t numPaths() const { return delays_.size(); }

  private:
    ProcessParams params_;
    double vt0Amp_;       ///< variation-amplified mean Vt0 (hoisted)
    double leffAmp_;      ///< variation-amplified mean Leff (hoisted)
    double denomCorner_;  ///< raw alpha-power delay at the corner
    double atCorner_;     ///< gateDelayFactor at the corner

    std::vector<double> delays_;   ///< ascending reference delays
    std::vector<double> levels_;   ///< PE per first-failing index, n+1

    /** Uniform bucket index over [delays front, back]: bucket b holds
     *  the first delay index whose bucket is >= b.  Empty when the
     *  delay range is degenerate (fall back to std::upper_bound). */
    std::vector<std::uint32_t> bucketStart_;
    double bucketLo_ = 0.0;
    double bucketInvWidth_ = 0.0;
};

} // namespace eval
