#include "kernels/alpha_power.hh"

#include <cmath>

#include "util/logging.hh"

namespace eval {

double
rawAlphaPowerDelay(const ProcessParams &p, double vtEff, double leff,
                   double vdd, double tempC)
{
    const double overdrive = vdd - vtEff;
    if (overdrive <= 1e-3)
        return kNonFunctionalDelayFactor;
    const double tK = celsiusToKelvin(tempC);
    const double tNomK = celsiusToKelvin(p.tempNominalC);
    const double mobility = std::pow(tNomK / tK, p.mobilityTempExponent);
    return vdd * leff / (mobility * std::pow(overdrive, p.alphaPower));
}

double
gateDelayFactor(const ProcessParams &p, double vt0, double leff,
                const OperatingConditions &op)
{
    const OperatingConditions corner = OperatingConditions::nominal(p);
    const double vtCorner = effectiveVt(p, p.vtMean, corner);
    const double denom =
        rawAlphaPowerDelay(p, vtCorner, p.leffMean, corner.vdd, corner.tempC);
    EVAL_ASSERT(denom > 0.0 && denom < kNonFunctionalDelayFactor,
                "design corner must be functional");

    // Amplify the variation-induced *deviations* only; the operating
    // point (Vdd/Vbb/T) acts with its physical sensitivity.
    const double vt0Amp = p.vtMean +
                          p.delayVariationGain * (vt0 - p.vtMean);
    const double leffAmp = p.leffMean +
                           p.delayVariationGain * (leff - p.leffMean);

    const double vtEff = effectiveVt(p, vt0Amp, op);
    const double num = rawAlphaPowerDelay(p, vtEff, leffAmp, op.vdd, op.tempC);
    if (num >= kNonFunctionalDelayFactor)
        return kNonFunctionalDelayFactor;
    return num / denom;
}

} // namespace eval
