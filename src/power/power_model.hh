/**
 * @file
 * Subsystem power models (Eqs 7 and 8 of the paper):
 *
 *   Pdyn = Kdyn * alpha_f * Vdd^2 * f        (C folded into Kdyn)
 *   Psta = Ksta * Vdd * T^2 * exp(-q Vt / k T)
 *
 * Kdyn and Ksta are per-subsystem constants the manufacturer derives
 * from CAD data; here they are calibrated so that the no-variation
 * 4GHz/1V processor lands at the paper's Figure 12 power levels
 * (~25W core+L1+L2 against a 30W per-core cap).
 */

#pragma once

#include <array>
#include <cstddef>

#include "kernels/alpha_power.hh"
#include "variation/floorplan.hh"
#include "variation/process_params.hh"

namespace eval {

/** Dynamic power (W): Eq 7. */
double dynamicPower(double kdyn, double alphaF, double vdd, double freqHz);

/** Static (subthreshold leakage) power (W): Eq 8. @p tempC junction. */
double staticPower(double ksta, double vdd, double tempC, double vtEff);

/** Per-subsystem power constants plus the reference activity used for
 *  calibration. */
struct SubsystemPowerParams
{
    double kdyn = 0.0;      ///< W / (V^2 * Hz), activity folded out
    double ksta = 0.0;      ///< W / (V * K^2), before the exp(Vt) term
    double alphaRef = 0.0;  ///< reference accesses/cycle for calibration
};

/** Chip-level calibration targets (Figure 12 power levels). */
struct PowerCalibration
{
    double coreDynamicTargetW = 15.5;  ///< core+L1 dynamic at nominal
    double coreStaticTargetW = 6.5;    ///< core+L1 static at nominal
    double calibrationTempC = 75.0;    ///< junction temp for the static cal
    double l2DynamicW = 1.0;           ///< private L2, fixed domain
    double l2StaticW = 2.0;
    double checkerPowerW = 1.0;        ///< Diva checker (TS environments)
};

/**
 * Derive per-subsystem Kdyn/Ksta so the no-variation chip meets the
 * calibration targets: dynamic shares follow typical activity-weighted
 * unit power breakdowns, static shares follow area.
 */
std::array<SubsystemPowerParams, kNumSubsystems>
calibratePower(const ProcessParams &params, const PowerCalibration &cal);

} // namespace eval

