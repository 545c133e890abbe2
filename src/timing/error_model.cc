#include "timing/error_model.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "kernels/memo_bypass.hh"
#include "stats/stat_registry.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

namespace {

std::uint64_t
nextCacheId()
{
    static std::atomic<std::uint64_t> counter{1};
    // eval-lint: allow(atomics-relaxed, atomics-hot-rmw) monotone id
    // source, one draw per constructed model (never per query); callers
    // need uniqueness, not ordering, and never read another thread's id.
    return counter.fetch_add(1, std::memory_order_relaxed);
}

/**
 * Per-thread direct-mapped memo cache for errorRatePerAccess.
 *
 * Keys are the exact bit patterns of the query, so a hit returns
 * precisely the value a recomputation would — results are therefore
 * independent of hit/miss history and identical across any thread
 * count (each thread simply keeps its own working set).  4096 entries
 * cover one core's knob grid (~15 subsystems x ~200 knob points) with
 * room for several phases' thermal iterates.
 */
struct PeCacheEntry
{
    std::uint64_t id = 0;        ///< 0 = empty
    std::uint64_t periodBits = 0;
    std::uint64_t vddBits = 0;
    std::uint64_t vbbBits = 0;
    std::uint64_t tempBits = 0;
    double value = 0.0;
};

constexpr std::size_t kPeCacheSize = 4096;   // power of two

thread_local PeCacheEntry peCache[kPeCacheSize];

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** The memo switch: on unless setPeCacheEnabled(false). */
std::atomic<bool> peCacheOn{true};

/**
 * The eval/hit counters, registered once and shared by the cached
 * entry point and the uncached compute path (previously both
 * re-registered the same names with their own static locals).
 */
struct PeCounters
{
    Counter &evals;
    Counter &hits;

    static const PeCounters &
    get()
    {
        static const PeCounters counters{
            StatRegistry::global().counter("timing.error_evals"),
            StatRegistry::global().counter("timing.error_cache_hits")};
        return counters;
    }
};

} // namespace

void
setPeCacheEnabled(bool enabled)
{
    // eval-lint: allow(atomics-relaxed) independent on/off switch; no
    // other memory is published with it.
    peCacheOn.store(enabled, std::memory_order_relaxed);
}

bool
peCacheEnabled()
{
    // eval-lint: allow(atomics-relaxed) single flag with no associated payload.
    return peCacheOn.load(std::memory_order_relaxed);
}

namespace {

/** Sorted reference delays of a population (surface input). */
std::vector<double>
sortedDelays(PathPopulation &pop)
{
    EVAL_ASSERT(!pop.paths.empty(), "error model needs paths");
    std::sort(pop.paths.begin(), pop.paths.end(),
              [](const TimingPath &a, const TimingPath &b) {
                  return a.delayRef < b.delayRef;
              });
    std::vector<double> delays(pop.paths.size());
    for (std::size_t i = 0; i < delays.size(); ++i)
        delays[i] = pop.paths[i].delayRef;
    return delays;
}

/** survivalLog[i] = log P(no path in [i, n) fails), size n+1. */
std::vector<double>
survivalLogOf(const PathPopulation &pop)
{
    const std::size_t n = pop.paths.size();
    std::vector<double> survivalLog(n + 1, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        const double s =
            clamp(pop.paths[i].sensitization, 0.0, 1.0 - 1e-12);
        survivalLog[i] = survivalLog[i + 1] + std::log1p(-s);
    }
    return survivalLog;
}

/** Builds the surface from a population (sorts it in place first). */
PeSurface
makeSurface(const ProcessParams &params, PathPopulation &pop)
{
    std::vector<double> delays = sortedDelays(pop);
    return PeSurface(params, pop.vt0Mean, pop.leffMean, std::move(delays),
                     survivalLogOf(pop));
}

} // namespace

StageErrorModel::StageErrorModel(const ProcessParams &params,
                                 PathPopulation pop)
    : params_(params), type_(pop.type), vt0Mean_(pop.vt0Mean),
      leffMean_(pop.leffMean), cacheId_(nextCacheId()),
      surface_(makeSurface(params, pop))
{
}

double
StageErrorModel::delayScale(const OperatingConditions &op) const
{
    return surface_.scaleExact(op);
}

double
StageErrorModel::errorRatePerAccess(double clockPeriod,
                                    const OperatingConditions &op) const
{
    EVAL_ASSERT(clockPeriod > 0.0, "clock period must be positive");
    const PeCounters &counters = PeCounters::get();
    counters.evals.inc();

    if (!peCacheEnabled() || ScopedMemoBypass::active())
        return errorRateAtScale(clockPeriod, surface_.scaleExact(op));

    const std::uint64_t periodBits = doubleBits(clockPeriod);
    const std::uint64_t vddBits = doubleBits(op.vdd);
    const std::uint64_t vbbBits = doubleBits(op.vbb);
    const std::uint64_t tempBits = doubleBits(op.tempC);
    // FNV-1a style mix over the key words, then a murmur-style
    // avalanche.  The avalanche is essential: without it the slot
    // index is a function of the key words' low mantissa bits only,
    // and "round" query values (grid Vdd steps, integral
    // temperatures) all share zero low bits — knob-grid sweeps used
    // to collapse onto a few dozen slots and thrash.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t w :
         {cacheId_, periodBits, vddBits, vbbBits, tempBits}) {
        h ^= w;
        h *= 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    PeCacheEntry &e = peCache[h & (kPeCacheSize - 1)];
    if (e.id == cacheId_ && e.periodBits == periodBits &&
        e.vddBits == vddBits && e.vbbBits == vbbBits &&
        e.tempBits == tempBits) {
        counters.hits.inc();
        return e.value;
    }
    const double pe = errorRateAtScale(clockPeriod, surface_.scaleExact(op));
    e = {cacheId_, periodBits, vddBits, vbbBits, tempBits, pe};
    return pe;
}

double
StageErrorModel::errorRateAtScale(double clockPeriod, double scale) const
{
    if (scale >= kNonFunctionalDelayFactor)
        return 1.0;
    const double threshold = clockPeriod / scale;
    return surface_.level(surface_.upperBoundIndex(threshold));
}

double
StageErrorModel::maxDelay(const OperatingConditions &op) const
{
    return surface_.delays().back() * delayScale(op);
}

double
StageErrorModel::fvar(const OperatingConditions &op) const
{
    const double d = maxDelay(op);
    return d > 0.0 ? 1.0 / d : 0.0;
}

double
StageErrorModel::maxFrequencyForErrorRate(double peBudget,
                                          const OperatingConditions &op) const
{
    EVAL_ASSERT(peBudget >= 0.0, "PE budget must be non-negative");
    const double scale = delayScale(op);
    if (scale >= kNonFunctionalDelayFactor)
        return 0.0;

    // First failing path index within budget: paths [lowest, n) may
    // fail and PE stays <= peBudget.  The legacy code walked the
    // sorted delays from the slowest down with an exp per step; the
    // surface's precomputed monotone PE levels turn that into a
    // partition point (identical result, including the tie rule).
    const std::size_t lowest = surface_.firstIndexWithinBudget(peBudget);
    // The clock period must still cover path lowest-1 (and all faster
    // ones).
    const std::vector<double> &delays = surface_.delays();
    const double coveredDelay = lowest == 0 ? 0.0 : delays[lowest - 1];
    if (coveredDelay <= 0.0) {
        // Entire population may fail within budget; frequency is
        // unbounded by this stage. Return a large sentinel.
        return 1.0e12;
    }
    // Tiny margin so the rounded period never re-includes the covered
    // path through floating-point noise.
    return 1.0 / (coveredDelay * scale * (1.0 + 1e-9));
}

double
processorErrorRate(const std::vector<double> &perAccessRates,
                   const std::vector<double> &rho)
{
    EVAL_ASSERT(perAccessRates.size() == rho.size(),
                "stage rate/activity size mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < perAccessRates.size(); ++i)
        total += rho[i] * perAccessRates[i];
    return total;
}

} // namespace eval
