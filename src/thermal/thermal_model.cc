#include "thermal/thermal_model.hh"

#include <cmath>

#include "kernels/thermal_batch.hh"
#include "stats/stat_registry.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

ThermalModel::ThermalModel(const ProcessParams &params, double coreAreaMm2,
                           double spreadCoeff, double spreadExponent)
    : params_(params), coreAreaMm2_(coreAreaMm2)
{
    EVAL_ASSERT(coreAreaMm2 > 0.0 && spreadCoeff > 0.0,
                "thermal model needs positive area/coefficient");
    EVAL_ASSERT(spreadExponent > 0.0 && spreadExponent < 1.0,
                "spreading exponent in (0,1)");
    const Floorplan plan(1);
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const double areaMm2 =
            plan.coreSubsystems(0)[i].areaFraction * coreAreaMm2;
        rth_[i] = spreadCoeff / std::pow(areaMm2, spreadExponent);
    }
}

double
ThermalModel::rth(SubsystemId id) const
{
    return rth_[static_cast<std::size_t>(id)];
}

void
ThermalModel::solveMany(const SubsystemThermalRequest *requests,
                        SubsystemThermalState *out, std::size_t n,
                        double thC) const
{
    static Counter &solves =
        StatRegistry::global().counter("thermal.solves");
    static Counter &runaways =
        StatRegistry::global().counter("thermal.runaways");

    // The batch kernel solves at most 64 lanes per call; a core has 15
    // subsystems, so one chunk covers every current caller.
    constexpr std::size_t kChunk = 64;
    ThermalLane lanes[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t m = n - base < kChunk ? n - base : kChunk;
        for (std::size_t i = 0; i < m; ++i) {
            const SubsystemThermalRequest &req = requests[base + i];
            ThermalLane &lane = lanes[i];
            lane.rth = rth(req.id);
            lane.pdyn = dynamicPower(req.power.kdyn, req.alphaF, req.vdd,
                                     req.freqHz);
            lane.ksta = req.power.ksta;
            lane.vt0 = req.vt0;
            lane.vdd = req.vdd;
            lane.vbb = req.vbb;
        }
        solveThermalLanes(params_, lanes, m, thC);
        for (std::size_t i = 0; i < m; ++i) {
            const ThermalLane &lane = lanes[i];
            SubsystemThermalState &st = out[base + i];
            st.tempC = lane.tempC;
            st.pdyn = lane.pdyn;
            st.psta = lane.psta;
            st.vtEff = lane.vtEff;
            st.runaway = lane.runaway;
            solves.inc();
            if (lane.runaway)
                runaways.inc();
        }
    }
}

SubsystemThermalState
ThermalModel::solveSubsystem(const SubsystemPowerParams &power,
                             SubsystemId id, double vt0, double vdd,
                             double vbb, double freqHz, double alphaF,
                             double thC) const
{
    SubsystemThermalRequest req;
    req.power = power;
    req.id = id;
    req.vt0 = vt0;
    req.vdd = vdd;
    req.vbb = vbb;
    req.freqHz = freqHz;
    req.alphaF = alphaF;
    SubsystemThermalState st;
    solveMany(&req, &st, 1, thC);
    return st;
}

} // namespace eval
