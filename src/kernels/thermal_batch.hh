/**
 * @file
 * Batched Eq 6-9 electro-thermal solves.
 *
 * The legacy path solved each subsystem with a `std::function`-driven
 * fixed point, re-dispatching the update lambda per iteration.  This
 * kernel solves all lanes of a core in one lockstep loop with the
 * update expression inlined (no std::function, no per-iteration
 * allocation), replicating the legacy iteration *verbatim*: each lane
 * freezes independently at exactly the step the scalar solver would
 * have stopped, so results are bit-identical.  Every call solves every
 * lane; there is no memo (DESIGN 5g).
 */

#pragma once

#include <cstddef>

#include "variation/process_params.hh"

namespace eval {

/**
 * One subsystem's solve: inputs + outputs, packed for lockstep.
 *
 * Deliberately trivial (no default initializers): lane buffers live on
 * the stack of a hot path and zeroing a 64-lane chunk per call costs
 * more than a single-lane solve.  Callers must set every input;
 * solveThermalLanes writes every output.
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
};

/**
 * Solve @p n lanes against heat-sink temperature @p thC.
 *
 * @param params process constants (Eq 8/9)
 */
void solveThermalLanes(const ProcessParams &params, ThermalLane *lanes,
                       std::size_t n, double thC);

} // namespace eval
