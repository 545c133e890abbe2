/**
 * @file
 * Technology and variation parameters for the modeled 45nm process.
 *
 * Values follow Figure 7(a) of the EVAL paper (MICRO 2008) and the
 * VARIUS model it builds on: Vt mean 150mV at 100C with sigma/mu 0.09
 * split equally between systematic and random components, Leff sigma/mu
 * half of Vt's, spatial-correlation range phi = 0.5 of the chip width.
 */

#pragma once

#include <cmath>
#include <cstddef>

namespace eval {

/** Boltzmann q/k ratio in kelvin per volt (q/kB). */
constexpr double kQOverK = 11604.52;

/** Celsius to kelvin. */
constexpr double
celsiusToKelvin(double c)
{
    return c + 273.15;
}

/** Process, variation, and device-model constants. */
struct ProcessParams
{
    // -- Nominal operating point (Figure 7(a)) --
    double vddNominal = 1.0;        ///< V
    double freqNominal = 4.0e9;     ///< Hz, no-variation frequency
    double tempNominalC = 85.0;     ///< C, design-corner temperature

    // -- Threshold voltage --
    double vtMean = 0.150;          ///< V at the reference temperature
    double vtRefTempC = 100.0;      ///< C, temperature of vtMean spec
    double vtSigmaOverMu = 0.09;    ///< total sigma/mu
    double vtSystematicShare = 0.5; ///< fraction of Vt variance systematic

    // -- Effective channel length (normalized to 1.0 nominal) --
    double leffMean = 1.0;
    double leffSigmaRatio = 0.5;    ///< Leff sigma/mu = ratio * Vt sigma/mu
    double leffSystematicShare = 0.5;
    /** Correlation between Vt and Leff systematic fields (short-channel
     *  coupling); VARIUS derives part of Vt's variation from Leff's. */
    double vtLeffCorrelation = 0.5;

    // -- Spatial correlation --
    double phi = 0.5;               ///< range as fraction of chip width
    std::size_t gridSize = 64;      ///< systematic-map resolution (po2)

    // -- Alpha-power-law delay model (Sakurai-Newton) --
    /** Effective path-level velocity-saturation exponent.  Transistor-
     *  level alpha at 45nm is ~1.3; full pipeline paths (gate + wire +
     *  RC mix) respond to Vdd more strongly, and this value is
     *  calibrated so per-subsystem ASV buys the frequency the paper's
     *  Figure 8(c)/Figure 10 report. */
    double alphaPower = 1.75;
    double mobilityTempExponent = 1.5;  ///< mu(T) ~ T^-1.5

    /**
     * Delay sensitivity gain applied to Vt/Leff *deviations* (not to
     * the operating point).  Our simplified alpha-power abstraction
     * under-represents several variation channels VARIUS models in
     * detail (interconnect variation, Vt-Leff coupling through DIBL
     * roll-off, multi-Vt cell libraries), so the raw deviations would
     * make variation too benign.  This gain is calibrated (see
     * tests/core/calibration_test.cpp) so the Baseline environment
     * lands at the paper's ~78% of the no-variation frequency.
     */
    double delayVariationGain = 1.25;

    /**
     * Supply-droop guardband used when rating worst-case (Baseline)
     * designs: the "V" of PVT variation.  A plain processor must meet
     * timing at Vdd * (1 - guardband); timing-speculating designs run
     * at the actual supply and absorb rare droop-induced errors
     * through the checker.
     */
    double vddDroopGuardband = 0.05;

    // -- Vt modulation (Eq 9), constants after Martin et al. [19] --
    double k1 = -4.0e-4;   ///< V/K: Vt drops as temperature rises
    double k2 = -0.05;   ///< V/V: DIBL, Vt drops as Vdd rises
    double k3 = -0.06;   ///< V/V: body effect, FBB (Vbb>0) lowers Vt

    /** Derived: total Vt sigma in volts. */
    double vtSigma() const { return vtMean * vtSigmaOverMu; }

    /** Derived: systematic Vt sigma in volts. */
    double
    vtSigmaSys() const
    {
        return vtSigma() * std::sqrt(vtSystematicShare);
    }

    /** Derived: random Vt sigma in volts. */
    double
    vtSigmaRan() const
    {
        return vtSigma() * std::sqrt(1.0 - vtSystematicShare);
    }

    /** Derived: total Leff sigma (normalized units). */
    double
    leffSigma() const
    {
        return leffMean * leffSigmaRatio * vtSigmaOverMu;
    }

    double
    leffSigmaSys() const
    {
        return leffSigma() * std::sqrt(leffSystematicShare);
    }

    double
    leffSigmaRan() const
    {
        return leffSigma() * std::sqrt(1.0 - leffSystematicShare);
    }

    /** A zero-variation copy of these parameters (NoVar environment). */
    ProcessParams
    withoutVariation() const
    {
        ProcessParams p = *this;
        p.vtSigmaOverMu = 0.0;
        p.leffSigmaRatio = 0.0;
        return p;
    }
};

} // namespace eval

