#include "kernels/thermal_batch.hh"

#include <atomic>
#include <cmath>
#include <cstring>

#include "kernels/alpha_power.hh"
#include "kernels/memo_bypass.hh"
#include "kernels/power_kernels.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

namespace {

/**
 * Per-thread direct-mapped memo for solved lanes.  Keys are the exact
 * bit patterns of every input, so a hit returns precisely what a
 * recomputation would — results are independent of hit/miss history
 * and thread count.  16384 entries (~1.5 MB/thread) hold several
 * cores' worth of knob-grid sweeps across retune phases.
 */
struct ThermalCacheEntry
{
    std::uint64_t salt = 0;   ///< 0 = empty (salts start at 1)
    std::uint64_t rBits = 0;
    std::uint64_t pdynBits = 0;
    std::uint64_t kstaBits = 0;
    std::uint64_t vt0Bits = 0;
    std::uint64_t vddBits = 0;
    std::uint64_t vbbBits = 0;
    std::uint64_t thCBits = 0;
    double tempC = 0.0;
    double psta = 0.0;
    double vtEff = 0.0;
    bool runaway = false;
};

constexpr std::size_t kThermalCacheSize = 16384;   // power of two

thread_local ThermalCacheEntry thermalCache[kThermalCacheSize];

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/**
 * FNV-1a mix plus a murmur-style avalanche finalizer.  The finalizer
 * matters: FNV alone leaves the low slot-index bits a function of the
 * inputs' low mantissa bits only, and "round" doubles (integral
 * temperatures, nominal voltages) all have zero low mantissa bits, so
 * grid-shaped sweeps would collapse onto a handful of slots.
 */
template <std::size_t N>
std::uint64_t
mixKey(const std::uint64_t (&words)[N])
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t w : words) {
        h ^= w;
        h *= 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

/** The memo switch: on unless setThermalCacheEnabled(false). */
std::atomic<bool> thermalCacheOn{true};

} // namespace

void
setThermalCacheEnabled(bool enabled)
{
    // eval-lint: allow(atomics-relaxed) independent on/off switch; no
    // other memory is published with it.
    thermalCacheOn.store(enabled, std::memory_order_relaxed);
}

bool
thermalCacheEnabled()
{
    // eval-lint: allow(atomics-relaxed) single flag with no associated payload.
    return thermalCacheOn.load(std::memory_order_relaxed);
}

std::uint64_t
nextThermalSalt()
{
    static std::atomic<std::uint64_t> counter{1};
    // eval-lint: allow(atomics-relaxed, atomics-hot-rmw) monotone id
    // source, one draw per ThermalModel (never per solve); callers need
    // uniqueness, not ordering, and never read another thread's id.
    return counter.fetch_add(1, std::memory_order_relaxed);
}

void
solveThermalLanes(const ProcessParams &params, std::uint64_t salt,
                  ThermalLane *lanes, std::size_t n, double thC)
{
    const bool useCache =
        thermalCacheEnabled() && !ScopedMemoBypass::active();
    const std::uint64_t thCBits = doubleBits(thC);

    // Lockstep per-lane iteration state.  `x` replays the legacy
    // scalar fixed point verbatim (damping 1.0, tol 1e-3, 120 steps):
    // each lane freezes at exactly the step the scalar solver stopped,
    // so the solved temperature keeps its bit pattern.
    constexpr std::size_t kMaxLanes = 64;
    EVAL_ASSERT(n <= kMaxLanes, "thermal batch wider than lane buffer");
    double x[kMaxLanes];
    bool done[kMaxLanes];
    bool converged[kMaxLanes];
    ThermalCacheEntry *slot[kMaxLanes];

    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ThermalLane &lane = lanes[i];
        lane.cacheHit = false;
        slot[i] = nullptr;
        if (useCache) {
            const std::uint64_t words[8] = {
                salt,
                doubleBits(lane.rth),
                doubleBits(lane.pdyn),
                doubleBits(lane.ksta),
                doubleBits(lane.vt0),
                doubleBits(lane.vdd),
                doubleBits(lane.vbb),
                thCBits,
            };
            const std::uint64_t h = mixKey(words);
            ThermalCacheEntry &e = thermalCache[h & (kThermalCacheSize - 1)];
            if (e.salt == words[0] && e.rBits == words[1] &&
                e.pdynBits == words[2] && e.kstaBits == words[3] &&
                e.vt0Bits == words[4] && e.vddBits == words[5] &&
                e.vbbBits == words[6] && e.thCBits == words[7]) {
                lane.tempC = e.tempC;
                lane.psta = e.psta;
                lane.vtEff = e.vtEff;
                lane.runaway = e.runaway;
                lane.cacheHit = true;
                done[i] = true;
                continue;
            }
            // Key + outputs are written together after the solve so a
            // duplicate key later in this batch can never observe a
            // half-filled entry.
            slot[i] = &e;
        }
        x[i] = thC + lane.rth * lane.pdyn;
        done[i] = false;
        converged[i] = false;
        ++active;
    }

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
        if (lane.cacheHit)
            continue;
        const double tSolved = clamp(x[i], -50.0, 400.0);
        lane.tempC = tSolved;
        const OperatingConditions op{lane.vdd, lane.vbb, tSolved};
        lane.vtEff = effectiveVt(params, lane.vt0, op);
        lane.psta = staticPowerEq8(lane.ksta, lane.vdd, tSolved, lane.vtEff);
        lane.runaway = !converged[i] || tSolved >= 399.0;
        if (slot[i] != nullptr) {
            ThermalCacheEntry &e = *slot[i];
            e.salt = salt;
            e.rBits = doubleBits(lane.rth);
            e.pdynBits = doubleBits(lane.pdyn);
            e.kstaBits = doubleBits(lane.ksta);
            e.vt0Bits = doubleBits(lane.vt0);
            e.vddBits = doubleBits(lane.vdd);
            e.vbbBits = doubleBits(lane.vbb);
            e.thCBits = thCBits;
            e.tempC = lane.tempC;
            e.psta = lane.psta;
            e.vtEff = lane.vtEff;
            e.runaway = lane.runaway;
        }
    }
}

} // namespace eval
