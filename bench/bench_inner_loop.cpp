/**
 * @file
 * Microbench for the simulation inner loop: per-kernel ns/eval for the
 * PE(f) evaluation (exact and memo-cached), the alpha-power delay
 * scale, the max-frequency-for-budget query, the thermal fixed-point
 * solve, the whole-core evaluation, and the path-population build.
 *
 * Every metric lands in the BENCH_JSON footer so benchtrack can track
 * the per-kernel trajectory alongside the end-to-end figure benches.
 * The grids are fixed (no EVAL_FAST scaling) so runs are comparable
 * across machines and history entries.
 */

#include <array>
#include <chrono>
#include <cstdio>

#include "bench_common.hh"
#include "kernels/thermal_batch.hh"

using namespace eval;

namespace {

using Clock = std::chrono::steady_clock;

/** Run @p body @p iters times and return the mean latency in ns. */
template <typename Fn>
double
nsPerCall(std::size_t iters, Fn &&body)
{
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        body(i);
    const auto t1 = Clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    return ns / static_cast<double>(iters);
}

/** Defeats dead-code elimination across timed sections. */
volatile double g_sink = 0.0;

} // namespace

int
main()
{
    BenchReporter reporter("inner_loop");
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = 1;
    const ProcessParams proc = cfg.process;
    ChipFactory factory(proc, cfg.seed);
    const Chip chip = factory.manufacture();

    Rng rng = chip.forkRng(0x1007);
    StageErrorModel logic(
        proc, buildPathPopulation(chip, 0, SubsystemId::Decode,
                                  PathPopulationParams{}, rng));
    StageErrorModel memory(
        proc, buildPathPopulation(chip, 0, SubsystemId::Dcache,
                                  PathPopulationParams{}, rng));

    // Operating-condition grid shaped like an optimizer sweep: every
    // knob-grid Vdd, a band of temperatures, and a band of periods
    // around nominal.  64 x 9 x 5 = 2880 distinct keys -- small enough
    // to live in the PE memo (4096 entries) for the cached metric.
    const double tNom = 1.0 / proc.freqNominal;
    std::vector<double> periods, vdds, temps;
    for (int i = 0; i < 64; ++i)
        periods.push_back(tNom * (0.70 + 0.01 * i));
    for (int i = 0; i < 9; ++i)
        vdds.push_back(0.80 + 0.05 * i);
    for (int i = 0; i < 5; ++i)
        temps.push_back(45.0 + 15.0 * i);
    std::vector<OperatingConditions> ops;
    ops.reserve(vdds.size() * temps.size());
    for (double v : vdds)
        for (double t : temps)
            ops.push_back({v, 0.0, t});

    double sink = 0.0;
    const bool peCacheWas = peCacheEnabled();

    // --- PE(f) evaluation, memo off: the uncached workhorse behind
    // every optimizer scan.  Alternate logic/memory stages like real
    // sweeps do.
    setPeCacheEnabled(false);
    {
        const std::size_t n = periods.size() * ops.size();
        const double ns = nsPerCall(2 * n, [&](std::size_t i) {
            const StageErrorModel &m = (i & 1) ? memory : logic;
            const double p = periods[i % periods.size()];
            sink += m.errorRatePerAccess(p, ops[(i / 2) % ops.size()]);
        });
        reporter.metric("pe_eval_exact_ns", ns);
        std::printf("pe_eval_exact        %10.1f ns/eval\n", ns);
    }

    // --- PE(f) evaluation, memo-cached: steady-state repeat queries.
    // 64 periods x 5 conditions = 320 keys, far below the 4096-entry
    // direct-mapped memo so collisions stay rare and the metric tracks
    // the hit path, not eviction thrash.
    setPeCacheEnabled(true);
    {
        const std::size_t nOps = 5;
        const std::size_t n = periods.size() * nOps;
        for (std::size_t i = 0; i < n; ++i)   // warm the memo
            sink += logic.errorRatePerAccess(periods[i % periods.size()],
                                             ops[i / periods.size()]);
        const double ns = nsPerCall(64 * n, [&](std::size_t i) {
            const double p = periods[i % periods.size()];
            sink += logic.errorRatePerAccess(
                p, ops[(i / periods.size()) % nOps]);
        });
        reporter.metric("pe_eval_cached_ns", ns);
        std::printf("pe_eval_cached       %10.1f ns/eval\n", ns);
    }
    setPeCacheEnabled(peCacheWas);

    // --- Alpha-power delay scale (the per-condition scale factor
    // behind every PE query and fvar).
    {
        const double ns = nsPerCall(200000, [&](std::size_t i) {
            sink += logic.delayScale(ops[i % ops.size()]);
        });
        reporter.metric("delay_scale_ns", ns);
        std::printf("delay_scale          %10.1f ns/eval\n", ns);
    }

    // --- Max frequency for an error budget (the Freq algorithm's
    // inner query; hits the breakpoint walk).
    {
        const double budgets[] = {0.0, 1e-6, 1e-4, 1e-2};
        const double ns = nsPerCall(100000, [&](std::size_t i) {
            const StageErrorModel &m = (i & 1) ? memory : logic;
            sink += m.maxFrequencyForErrorRate(budgets[i % 4],
                                               ops[i % ops.size()]);
        });
        reporter.metric("max_freq_query_ns", ns);
        std::printf("max_freq_query       %10.1f ns/eval\n", ns);
    }

    // --- Thermal fixed-point solve (one subsystem, memo off: every
    // call runs the full Eq 6-9 iteration).
    const auto power = calibratePower(proc, cfg.powerCal);
    const auto thermal = std::make_shared<const ThermalModel>(proc);
    const bool thermalCacheWas = thermalCacheEnabled();
    setThermalCacheEnabled(false);
    {
        const auto &pp = power[static_cast<std::size_t>(SubsystemId::IntALU)];
        const double ns = nsPerCall(100000, [&](std::size_t i) {
            const double vdd = vdds[i % vdds.size()];
            const double freq = (3.0 + 0.001 * (i % 1000)) * 1e9;
            const SubsystemThermalState st = thermal->solveSubsystem(
                pp, SubsystemId::IntALU, proc.vtMean, vdd, 0.0, freq,
                0.8, 45.0 + (i % 7));
            sink += st.tempC + st.power();
        });
        reporter.metric("thermal_solve_ns", ns);
        std::printf("thermal_solve        %10.1f ns/solve\n", ns);
    }

    // --- Thermal solve, memo-cached: steady-state repeat queries
    // (9 Vdds x 7 sink temps = 63 keys, far below the 16384-entry
    // memo).
    setThermalCacheEnabled(true);
    {
        const auto &pp = power[static_cast<std::size_t>(SubsystemId::IntALU)];
        const double ns = nsPerCall(200000, [&](std::size_t i) {
            const double vdd = vdds[i % vdds.size()];
            const SubsystemThermalState st = thermal->solveSubsystem(
                pp, SubsystemId::IntALU, proc.vtMean, vdd, 0.0, 3.5e9,
                0.8, 45.0 + (i % 7));
            sink += st.tempC + st.power();
        });
        reporter.metric("thermal_solve_cached_ns", ns);
        std::printf("thermal_solve_cached %10.1f ns/solve\n", ns);
    }

    // --- Batched thermal solve: all 15 subsystems of a core in one
    // lockstep call, reported per lane (memo off isolates the solver).
    setThermalCacheEnabled(false);
    {
        std::array<SubsystemThermalRequest, kNumSubsystems> reqs;
        std::array<SubsystemThermalState, kNumSubsystems> out;
        for (std::size_t s = 0; s < kNumSubsystems; ++s) {
            reqs[s].power = power[s];
            reqs[s].id = static_cast<SubsystemId>(s);
            reqs[s].vt0 = proc.vtMean;
            reqs[s].vdd = 1.0;
            reqs[s].vbb = 0.0;
            reqs[s].freqHz = 3.5e9;
            reqs[s].alphaF = 0.8;
        }
        const double ns = nsPerCall(20000, [&](std::size_t i) {
            reqs[i % kNumSubsystems].vdd = vdds[i % vdds.size()];
            thermal->solveMany(reqs.data(), out.data(), kNumSubsystems,
                               45.0 + (i % 7));
            sink += out[i % kNumSubsystems].tempC;
        });
        reporter.metric("thermal_batch_lane_ns",
                        ns / static_cast<double>(kNumSubsystems));
        std::printf("thermal_batch_lane   %10.1f ns/lane\n",
                    ns / static_cast<double>(kNumSubsystems));
    }
    setThermalCacheEnabled(thermalCacheWas);

    // --- Whole-core evaluation (15 subsystems: thermal + PE + power),
    // the optimizer's candidate-cost unit.
    {
        CoreSystemModel core(chip, 0, power, cfg.powerCal, thermal);
        const OperatingPoint op = nominalOperatingPoint(proc);
        ActivityVector act;
        for (std::size_t s = 0; s < kNumSubsystems; ++s) {
            act.alpha[s] = 0.5;
            act.rho[s] = 0.4;
        }
        const double us = 1e-3 * nsPerCall(2000, [&](std::size_t i) {
            const CoreEvaluation ev =
                core.evaluate(op, act, 42.0 + 0.01 * (i % 256));
            sink += ev.totalPowerW + ev.pePerInstruction;
        });
        reporter.metric("core_evaluate_us", us);
        std::printf("core_evaluate        %10.2f us/eval\n", us);
    }

    // --- Path-population build (manufacturing-time cost; dominated by
    // the per-path alpha-power corner delay).
    {
        const double us = 1e-3 * nsPerCall(200, [&](std::size_t i) {
            Rng r = chip.forkRng(0x2000 + i);
            const PathPopulation pop = buildPathPopulation(
                chip, 0, SubsystemId::Icache, PathPopulationParams{}, r);
            sink += pop.paths.back().delayRef;
        });
        reporter.metric("path_build_us", us);
        std::printf("path_build           %10.2f us/build\n", us);
    }

    g_sink = sink;
    return 0;
}
