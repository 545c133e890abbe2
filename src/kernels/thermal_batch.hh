/**
 * @file
 * Batched Eq 6-9 electro-thermal solves with an exact-bit memo.
 *
 * The legacy path solved each subsystem with a `std::function`-driven
 * fixed point, re-dispatching the update lambda per iteration and
 * re-solving identical (Rth, Pdyn, Ksta, Vt0, Vdd, Vbb, TH) queries
 * millions of times across optimizer sweeps, fuzzy training, and
 * retune cycles.  This kernel:
 *
 *  - solves all lanes of a core in one lockstep loop with the update
 *    expression inlined (no std::function, no per-iteration
 *    allocation), replicating the legacy iteration *verbatim* — each
 *    lane freezes independently at exactly the step the scalar solver
 *    would have stopped, so results are bit-identical;
 *  - memoizes solved lanes in a per-thread direct-mapped cache keyed
 *    by the exact bit patterns of every input (plus a per-model salt
 *    covering the process constants), so a hit returns precisely the
 *    value a recomputation would produce — results stay independent
 *    of hit/miss history and thread count.
 *
 * The memo is on by default (it is exact-bit, so the golden record is
 * unaffected); setThermalCacheEnabled switches it for tests and the
 * differential tier.  Online Exh-Dyn consults it (retune cycles
 * re-solve one knob grid); FC label generation skips it through a
 * per-thread ScopedMemoBypass (kernels/memo_bypass.hh), because its
 * continuous random queries seldom repeat (DESIGN 5g).
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "variation/process_params.hh"

namespace eval {

/**
 * One subsystem's solve: inputs + outputs, packed for lockstep.
 *
 * Deliberately trivial (no default initializers): lane buffers live on
 * the stack of a hot path and zeroing a 64-lane chunk per call costs
 * more than a single-lane solve.  Callers must set every input;
 * solveThermalLanes writes every output for each solved lane.
 */
struct ThermalLane
{
    // inputs
    double rth;     ///< K/W
    double pdyn;    ///< W (precomputed Eq 7)
    double ksta;    ///< Eq 8 coefficient
    double vt0;     ///< threshold at reference conditions
    double vdd;
    double vbb;
    // outputs
    double tempC;
    double psta;
    double vtEff;
    bool runaway;
    bool cacheHit;
};

/**
 * Solve @p n lanes against heat-sink temperature @p thC.
 *
 * @param params process constants (Eq 8/9)
 * @param salt   per-ThermalModel memo salt: two models with different
 *               process constants must never share memo entries
 */
void solveThermalLanes(const ProcessParams &params, std::uint64_t salt,
                       ThermalLane *lanes, std::size_t n, double thC);

/** Process-wide memo switch, default on (tests save/restore around
 *  this); a ScopedMemoBypass turns the memo off for one thread. */
void setThermalCacheEnabled(bool enabled);
bool thermalCacheEnabled();

/** Next unique memo salt (one per ThermalModel instance). */
std::uint64_t nextThermalSalt();

} // namespace eval
