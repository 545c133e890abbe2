/**
 * @file
 * Alpha-power-law gate-delay model (Sakurai-Newton) with the Eq 9 Vt
 * modulation used throughout the paper:
 *
 *   Tg  ~  Vdd * Leff / (mu(T) * (Vdd - Vt)^alpha)          (Eq 1)
 *   Vt  =  Vt0 + k1 (T - T0) + k2 (Vdd - Vdd0) + k3 Vbb     (Eq 9)
 *
 * All delays in this library are expressed as *factors* relative to the
 * design corner (nominal Vdd, zero body bias, the design-corner
 * temperature, nominal Vt and Leff), so a factor of 1.10 means "10%
 * slower than a nominal gate at the corner".
 */

#pragma once

#include "variation/process_params.hh"

namespace eval {

/** An electrical operating point for a voltage/bias domain. */
struct OperatingConditions
{
    double vdd;    ///< supply voltage, V
    double vbb;    ///< body bias, V (positive = forward bias)
    double tempC;  ///< junction temperature, C

    static OperatingConditions
    nominal(const ProcessParams &p)
    {
        return {p.vddNominal, 0.0, p.tempNominalC};
    }
};

/**
 * Effective threshold voltage at the given conditions (Eq 9).  Inline:
 * the thermal fixed point evaluates it once per lane per iteration.
 *
 * @param p   process constants
 * @param vt0 threshold at the Vt reference temperature, nominal Vdd,
 *            zero bias (this is the quantity the tester measures)
 */
inline double
effectiveVt(const ProcessParams &p, double vt0, const OperatingConditions &op)
{
    return vt0 + p.k1 * (op.tempC - p.vtRefTempC) +
           p.k2 * (op.vdd - p.vddNominal) + p.k3 * op.vbb;
}

/**
 * Raw (unnormalized) alpha-power delay expression (Eq 1 numerator).
 * Mobility falls as T^-1.5, so delay carries a (T/Tc)^{+1.5} term.
 * Exposed so the kernel layer can hoist the design-corner denominator
 * out of hot loops; `gateDelayFactor` remains the normalized form.
 */
double rawAlphaPowerDelay(const ProcessParams &p, double vtEff, double leff,
                          double vdd, double tempC);

/**
 * Gate-delay factor relative to the design corner.
 *
 * @param p    process constants
 * @param vt0  local threshold voltage (reference conditions)
 * @param leff local normalized channel length
 * @param op   electrical operating point
 * @return delay multiplier; a gate with nominal vt0/leff at the design
 *         corner returns exactly 1.0.  Returns a large saturated value
 *         when Vdd fails to exceed the effective Vt (non-functional).
 */
double gateDelayFactor(const ProcessParams &p, double vt0, double leff,
                       const OperatingConditions &op);

/** Delay factor saturation used when Vdd <= Vt (gate cannot switch). */
constexpr double kNonFunctionalDelayFactor = 1.0e6;

} // namespace eval

