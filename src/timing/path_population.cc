#include "timing/path_population.hh"

#include <algorithm>
#include <cmath>

#include "kernels/alpha_power.hh"
#include "kernels/path_soa.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

namespace {

/**
 * Structural delay fraction, sensitization, and (for memory cells) the
 * tail quantile of the per-cell random variation.
 */
struct StructuralPath
{
    double fraction;         ///< of the nominal clock period, at corner
    double sensitization;
    /** When >= 0: importance-sampled standard-normal quantile for the
     *  path's random Vt component (memory cells); < 0 means "draw the
     *  random component normally with gate averaging". */
    double tailZ = -1.0;
};

/**
 * Memory arrays: decoders/wordlines/bitlines are replicated, so all
 * paths have nearly the same structural length, but each access
 * exercises only one row/cell out of tens of thousands.  The slow
 * outliers are cells deep in the random-variation tail, each touched
 * with probability ~1/totalCells.  We importance-sample the top
 * tailFraction of the cell population so the model can resolve error
 * rates far below one failure per access — that resolution is what
 * lets timing speculation clock memory structures past fvar at all.
 */
void
drawMemoryPaths(std::vector<StructuralPath> &out, std::size_t count,
                const PathPopulationParams &pp, Rng &rng)
{
    const double n = static_cast<double>(pp.memoryTotalCells);
    // The sampled tail spans the top-K cells of the array, K set by
    // the tail fraction but at least 10 so small arrays are handled:
    // a 128-row register file's "tail" is just its slowest rows, and
    // its deepest cell sits near the 1 - 1/N quantile.  Redundancy
    // (large caches) trims the far end to 1 - repairedFraction.
    const double k = std::min(n, std::max(10.0, pp.memoryTailFraction * n));
    const double lo = 1.0 - k / n;
    const double hi =
        1.0 - std::max(pp.memoryRepairedFraction, 1.0 / n);
    const double sens = (hi - lo) / static_cast<double>(count);

    for (std::size_t i = 0; i < count; ++i) {
        StructuralPath p;
        p.fraction = 1.0 - std::abs(rng.gaussian(0.0, 0.008));
        p.tailZ = normalQuantile(rng.uniform(lo, hi));
        p.sensitization = sens;
        out.push_back(p);
    }

    // Bulk pseudo-path: the quantile just below the sampled tail,
    // standing in for the rest of the cells.  If the clock cuts into
    // the bulk, essentially every access fails.
    StructuralPath bulk;
    bulk.fraction = 1.0;
    bulk.tailZ = normalQuantile(std::max(lo, 0.5));
    bulk.sensitization = 0.9;
    out.push_back(bulk);
}

/**
 * Random logic: the design tools leave a wide variety of path lengths
 * below the critical-path wall, and the longer a path is, the more
 * specific the input pattern needed to exercise it fully — so the
 * near-critical paths fire rarely while short paths fire often.  This
 * coupling produces the gradual error onset of Fig 8(a): clocking a
 * little past fvar only exposes rare paths.
 */
StructuralPath
drawLogicPath(Rng &rng)
{
    StructuralPath p;
    p.fraction = 1.0 - std::abs(rng.gaussian(0.0, 0.16));
    p.fraction = std::max(p.fraction, 0.4);
    const double closeness = (p.fraction - 0.4) / 0.6;   // 1 at the wall
    const double exponent =
        0.5 + 5.5 * closeness + rng.gaussian(0.0, 0.5);
    p.sensitization =
        std::min(0.5, std::pow(10.0, -std::max(exponent, 0.3)));
    return p;
}

/**
 * The frequently-exercised short-path mass of a logic stage: nearly
 * every access drives these, so a clock deep inside the distribution
 * fails on almost every cycle (PE -> 1 at heavy overclock) even though
 * the near-critical onset is gradual.
 */
void
appendLogicBulk(std::vector<StructuralPath> &out)
{
    out.push_back({0.65, 0.90, -1.0});
    out.push_back({0.75, 0.50, -1.0});
}

} // namespace

PathPopulationParams
defaultPathParams(SubsystemId id)
{
    PathPopulationParams pp;
    switch (id) {
      case SubsystemId::Dcache:
      case SubsystemId::Icache:
        // Large caches: tens of thousands of cells, but column/row
        // redundancy repairs the worst cells, and the SRAM-Razor
        // duplicate sense amps give speculative reads a late-sampling
        // margin (Sec 5).
        pp.memoryTotalCells = 65536;
        pp.memoryRepairedFraction = 0.002;
        pp.structuralScale = kRazorL1Margin;
        break;
      case SubsystemId::DTLB:
      case SubsystemId::ITLB:
        pp.memoryTotalCells = 128;    // 64-128 entry CAM, no spares
        break;
      case SubsystemId::IntReg:
      case SubsystemId::FPReg:
      case SubsystemId::IntMap:
      case SubsystemId::FPMap:
        // The per-access critical path is the addressed row; the tail
        // is over row drivers, not individual bit cells.
        pp.memoryTotalCells = 128;
        break;
      case SubsystemId::IntQ:
      case SubsystemId::FPQ:
        // Wakeup CAM match lines use minimum-width devices across the
        // full entry x tag-bit count: deep random tail, no redundancy.
        pp.memoryTotalCells = 8192;
        break;
      case SubsystemId::LdStQ:
        pp.memoryTotalCells = 1024;   // CAM-heavy but shallow
        break;
      case SubsystemId::BranchPred:
        pp.memoryTotalCells = 2048;   // pattern-table rows
        break;
      default:
        break;                         // logic stages ignore these
    }
    return pp;
}

PathPopulation
buildPathPopulation(const Chip &chip, std::size_t core, SubsystemId id,
                    const PathPopulationParams &params, Rng &rng)
{
    EVAL_ASSERT(params.numPaths > 1, "population needs >1 path");
    EVAL_ASSERT(params.gatesPerPath >= 1.0, "gatesPerPath >= 1");
    EVAL_ASSERT(params.memoryTailFraction > 0.0 &&
                    params.memoryTailFraction < 0.5,
                "memory tail fraction in (0, 0.5)");

    const SubsystemInfo &info = chip.floorplan().subsystem(core, id);
    const ProcessParams &proc = chip.params();

    // 1. Draw structural paths by circuit style.
    std::vector<StructuralPath> structural;
    structural.reserve(params.numPaths + 2);
    switch (info.type) {
      case StageType::Memory:
        drawMemoryPaths(structural, params.numPaths, params, rng);
        break;
      case StageType::Logic:
        for (std::size_t i = 0; i < params.numPaths; ++i)
            structural.push_back(drawLogicPath(rng));
        appendLogicBulk(structural);
        break;
      case StageType::Mixed:
        drawMemoryPaths(structural, params.numPaths / 2, params, rng);
        for (std::size_t i = 0; i < params.numPaths / 2; ++i)
            structural.push_back(drawLogicPath(rng));
        appendLogicBulk(structural);
        break;
    }

    // 2. Normalize to the critical-path wall: the slowest *structural*
    //    path exactly meets the nominal period at the corner.
    double maxFrac = 0.0;
    for (const auto &p : structural)
        maxFrac = std::max(maxFrac, p.fraction);
    for (auto &p : structural)
        p.fraction /= maxFrac;

    // 3. Low-slope re-optimization (Tilt, Sec 3.3.1): widen the
    //    structural spread about the wall without touching the slowest
    //    path, doubling the variance (per Augsburger & Nikolic data the
    //    near-critical bulk moves away from the wall).
    if (params.lowSlope) {
        const double spread = std::sqrt(2.0);
        for (auto &p : structural)
            p.fraction = 1.0 - (1.0 - p.fraction) * spread;
    }

    // 4. Apply global knobs (structural margin, Shift techniques).
    for (auto &p : structural)
        p.fraction *= params.structuralScale * params.shiftFactor;

    // 5. Apply variation: sample each path's location in the subsystem
    //    rectangle, read the systematic Vt/Leff there, and add the
    //    random component — averaged over the path's gates for logic,
    //    or taken from the importance-sampled cell tail for memory.
    const double gateAveraging = 1.0 / std::sqrt(params.gatesPerPath);
    const double tNom = 1.0 / proc.freqNominal;

    PathPopulation pop;
    pop.type = info.type;
    pop.paths.reserve(structural.size());

    // Subsystem means come from the systematic map (the path draws
    // would be tail-biased for memory arrays).
    pop.vt0Mean = chip.map().vtSystematicMean(info.rect);
    pop.leffMean = chip.map().leffSystematicMean(info.rect);

    // Draw pass: the RNG stream must consume draws in exactly the
    // legacy per-path order (x, y, conditional Vt gaussian, Leff
    // gaussian) — only the delay evaluation moves into the SoA kernel.
    const std::size_t n = structural.size();
    std::vector<double> fraction(n), vt0(n), leff(n), delayRef(n);
    for (std::size_t i = 0; i < n; ++i) {
        const StructuralPath &sp = structural[i];
        const double x = rng.uniform(info.rect.x0, info.rect.x1);
        const double y = rng.uniform(info.rect.y0, info.rect.y1);
        const double vtRandom =
            sp.tailZ >= 0.0
                ? sp.tailZ * chip.map().vtSigmaRandom()
                : rng.gaussian(0.0,
                               chip.map().vtSigmaRandom() * gateAveraging);
        fraction[i] = sp.fraction;
        vt0[i] = chip.map().vtSystematicAt(x, y) + vtRandom;
        leff[i] =
            chip.map().leffSystematicAt(x, y) +
            rng.gaussian(0.0, chip.map().leffSigmaRandom() * gateAveraging);
    }

    // Delay pass: SoA corner-delay kernel (bit-identical to the
    // per-path gateDelayFactor loop; see kernels/path_soa.hh).
    cornerPathDelays(proc, tNom, fraction.data(), vt0.data(), leff.data(),
                     delayRef.data(), n);

    for (std::size_t i = 0; i < n; ++i) {
        TimingPath path;
        path.delayRef = delayRef[i];
        path.sensitization = clamp(structural[i].sensitization, 0.0, 1.0);
        pop.paths.push_back(path);
    }
    return pop;
}

} // namespace eval
