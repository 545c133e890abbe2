#include "valid/serializers.hh"

#include <utility>

namespace eval {

namespace {

constexpr std::uint32_t kVariationMapVersion = 1;
constexpr std::uint32_t kChipVersion = 1;
constexpr std::uint32_t kAdaptationResultVersion = 1;

/** A JSON array of doubles from a std::vector or std::array. */
template <typename Doubles>
JsonValue
doubleArray(const Doubles &xs)
{
    JsonValue arr = JsonValue::array();
    for (double x : xs)
        arr.push(x);
    return arr;
}

} // namespace

JsonValue
toJson(const Rng::State &state)
{
    JsonValue o = JsonValue::object();
    JsonValue words = JsonValue::array();
    for (std::uint64_t w : state.words)
        words.push(w);
    o.set("words", std::move(words));
    o.set("cached_gaussian", state.cachedGaussian);
    o.set("has_cached_gaussian", state.hasCachedGaussian);
    return o;
}

JsonValue
toJson(const ProcessParams &p)
{
    JsonValue o = JsonValue::object();
    o.set("vdd_nominal", p.vddNominal);
    o.set("freq_nominal", p.freqNominal);
    o.set("temp_nominal_c", p.tempNominalC);
    o.set("vt_mean", p.vtMean);
    o.set("vt_ref_temp_c", p.vtRefTempC);
    o.set("vt_sigma_over_mu", p.vtSigmaOverMu);
    o.set("vt_systematic_share", p.vtSystematicShare);
    o.set("leff_mean", p.leffMean);
    o.set("leff_sigma_ratio", p.leffSigmaRatio);
    o.set("leff_systematic_share", p.leffSystematicShare);
    o.set("vt_leff_correlation", p.vtLeffCorrelation);
    o.set("phi", p.phi);
    o.set("grid_size", p.gridSize);
    o.set("alpha_power", p.alphaPower);
    o.set("mobility_temp_exponent", p.mobilityTempExponent);
    o.set("delay_variation_gain", p.delayVariationGain);
    o.set("vdd_droop_guardband", p.vddDroopGuardband);
    o.set("k1", p.k1);
    o.set("k2", p.k2);
    o.set("k3", p.k3);
    return o;
}

JsonValue
toSnapshot(const VariationMap &map)
{
    JsonValue payload = JsonValue::object();
    payload.set("params", toJson(map.params()));
    payload.set("grid_size", map.gridSize());
    payload.set("vt_sys", doubleArray(map.vtSystematicField()));
    payload.set("leff_sys", doubleArray(map.leffSystematicField()));
    return makeSnapshot("variation_map", kVariationMapVersion,
                        std::move(payload));
}

JsonValue
toSnapshot(const Chip &chip)
{
    JsonValue payload = JsonValue::object();
    payload.set("id", chip.id());
    payload.set("num_cores", chip.floorplan().numCores());
    payload.set("rng", toJson(chip.rng().state()));
    // The map nests as a complete snapshot of its own.
    payload.set("map", toSnapshot(chip.map()));
    return makeSnapshot("chip", kChipVersion, std::move(payload));
}

JsonValue
toJson(const OperatingPoint &op)
{
    JsonValue o = JsonValue::object();
    o.set("freq", op.freq);
    JsonValue knobs = JsonValue::array();
    for (const SubsystemKnobs &k : op.knobs) {
        JsonValue kv = JsonValue::object();
        kv.set("vdd", k.vdd);
        kv.set("vbb", k.vbb);
        knobs.push(std::move(kv));
    }
    o.set("knobs", std::move(knobs));
    o.set("low_slope_fu", op.lowSlopeFu);
    o.set("small_queue", op.smallQueue);
    return o;
}

JsonValue
toSnapshot(const AdaptationResult &result)
{
    JsonValue payload = JsonValue::object();
    payload.set("op", toJson(result.op));
    payload.set("feasible", result.feasible);
    payload.set("predicted_perf", result.predictedPerf);
    payload.set("predicted_pe", result.predictedPe);
    payload.set("fmax", doubleArray(result.fmax));
    return makeSnapshot("adaptation_result", kAdaptationResultVersion,
                        std::move(payload));
}

} // namespace eval
