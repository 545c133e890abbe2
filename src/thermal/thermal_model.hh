/**
 * @file
 * Steady-state thermal model (Eq 6) and the coupled electro-thermal
 * solver over Eqs 6-9:
 *
 *   T    = TH + Rth * (Pdyn + Psta)
 *   Psta = Ksta * Vdd * T^2 * exp(-q Vt / k T)
 *   Vt   = Vt0 + k1 (T - T0) + k2 (Vdd - Vdd0) + k3 Vbb
 *
 * These form a feedback system (leakage heats the block, heat raises
 * leakage); we solve each subsystem by damped fixed-point iteration,
 * which also detects thermal runaway.
 */

#pragma once

#include <array>
#include <cstddef>

#include "power/power_model.hh"
#include "variation/floorplan.hh"
#include "variation/process_params.hh"

namespace eval {

/** Solved thermal/electrical state of one subsystem. */
struct SubsystemThermalState
{
    double tempC = 0.0;     ///< junction temperature
    double pdyn = 0.0;      ///< W
    double psta = 0.0;      ///< W
    double vtEff = 0.0;     ///< effective Vt at tempC
    bool runaway = false;   ///< fixed point failed to converge

    double power() const { return pdyn + psta; }
};

/** One subsystem's solve inputs for ThermalModel::solveMany. */
struct SubsystemThermalRequest
{
    SubsystemPowerParams power;
    SubsystemId id = SubsystemId::Dcache;
    double vt0 = 0.0;       ///< threshold at reference conditions
    double vdd = 0.0;       ///< supply voltage (ASV setting)
    double vbb = 0.0;       ///< body bias (ABB setting)
    double freqHz = 0.0;    ///< clock frequency
    double alphaF = 0.0;    ///< activity in accesses/cycle
};

/** Heat-sink model: TH rises with total chip power. */
struct HeatsinkModel
{
    double ambientC = 40.0;
    double rthSinkKPerW = 0.25;   ///< chip-total thermal resistance

    double
    tempC(double chipPowerW) const
    {
        return ambientC + rthSinkKPerW * chipPowerW;
    }
};

/**
 * Per-subsystem thermal resistances and the Eq 6-9 solver.
 *
 * Rth follows a spreading-resistance law Rth = c / A^p with p < 0.5:
 * small, power-dense blocks (integer ALU, issue queues) sit above the
 * heat sink while large caches stay close to it, but sub-mm^2 blocks
 * benefit strongly from lateral spreading into their neighbours
 * (HotSpot behaviour), hence the sub-square-root exponent.
 */
class ThermalModel
{
  public:
    /**
     * @param params       process constants
     * @param coreAreaMm2  physical core area
     * @param spreadCoeff  c in Rth = c / A_mm2^p, K/W at 1 mm^2
     * @param spreadExponent p in the spreading law
     */
    ThermalModel(const ProcessParams &params, double coreAreaMm2 = 20.0,
                 double spreadCoeff = 2.5, double spreadExponent = 0.35);

    /** Thermal resistance of a subsystem, K/W. */
    double rth(SubsystemId id) const;

    /**
     * Solve the Eq 6-9 fixed point for one subsystem.
     *
     * @param power   subsystem Kdyn/Ksta
     * @param vt0     subsystem threshold at reference conditions
     * @param vdd     supply voltage (ASV setting)
     * @param vbb     body bias (ABB setting)
     * @param freqHz  clock frequency
     * @param alphaF  activity in accesses/cycle
     * @param thC     heat-sink temperature
     */
    SubsystemThermalState
    solveSubsystem(const SubsystemPowerParams &power, SubsystemId id,
                   double vt0, double vdd, double vbb, double freqHz,
                   double alphaF, double thC) const;

    /**
     * Solve @p n subsystems against one heat-sink temperature in a
     * single lockstep fixed-point iteration (kernels/thermal_batch.hh).
     * Each lane freezes independently at exactly the step the scalar
     * solver would have stopped at, so @p out[i] is bit-identical to
     * the corresponding solveSubsystem call.  Every call solves every
     * request; nothing is memoized.
     */
    void solveMany(const SubsystemThermalRequest *requests,
                   SubsystemThermalState *out, std::size_t n,
                   double thC) const;

    const ProcessParams &params() const { return params_; }
    double coreAreaMm2() const { return coreAreaMm2_; }

  private:
    ProcessParams params_;
    double coreAreaMm2_;
    std::array<double, kNumSubsystems> rth_;
};

} // namespace eval

