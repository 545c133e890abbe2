#include "kernels/thermal_batch.hh"

#include <cmath>

#include "kernels/alpha_power.hh"
#include "kernels/power_kernels.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

void
solveThermalLanes(const ProcessParams &params, ThermalLane *lanes,
                  std::size_t n, double thC)
{
    // Lockstep per-lane iteration state.  `x` replays the legacy
    // scalar fixed point verbatim (damping 1.0, tol 1e-3, 120 steps):
    // each lane freezes at exactly the step the scalar solver stopped,
    // so the solved temperature keeps its bit pattern.
    constexpr std::size_t kMaxLanes = 64;
    EVAL_ASSERT(n <= kMaxLanes, "thermal batch wider than lane buffer");
    double x[kMaxLanes];
    bool done[kMaxLanes];
    bool converged[kMaxLanes];

    for (std::size_t i = 0; i < n; ++i) {
        x[i] = thC + lanes[i].rth * lanes[i].pdyn;
        done[i] = false;
        converged[i] = false;
    }

    std::size_t active = n;
    for (std::size_t iter = 0; iter < 120 && active > 0; ++iter) {
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i])
                continue;
            const ThermalLane &lane = lanes[i];
            const double tSafe = clamp(x[i], -50.0, 400.0);
            const OperatingConditions op{lane.vdd, lane.vbb, tSafe};
            const double vtEff = effectiveVt(params, lane.vt0, op);
            const double psta =
                staticPowerEq8(lane.ksta, lane.vdd, tSafe, vtEff);
            const double fx =
                clamp(thC + lane.rth * (lane.pdyn + psta), -50.0, 400.0);
            const double next = (1.0 - 1.0) * x[i] + 1.0 * fx;
            if (std::abs(next - x[i]) < 1e-3) {
                x[i] = next;
                converged[i] = true;
                done[i] = true;
                --active;
                continue;
            }
            x[i] = next;
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        ThermalLane &lane = lanes[i];
        const double tSolved = clamp(x[i], -50.0, 400.0);
        lane.tempC = tSolved;
        const OperatingConditions op{lane.vdd, lane.vbb, tSolved};
        lane.vtEff = effectiveVt(params, lane.vt0, op);
        lane.psta = staticPowerEq8(lane.ksta, lane.vdd, tSolved, lane.vtEff);
        lane.runaway = !converged[i] || tSolved >= 399.0;
    }
}

} // namespace eval
