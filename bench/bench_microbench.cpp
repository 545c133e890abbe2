/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot paths, and
 * for the paper's runtime claims: the fuzzy controller routines take
 * ~6us per invocation on the managed CPU (Sec 4.3.3), which makes
 * phase-granularity adaptation essentially free.
 */

#include <benchmark/benchmark.h>

#include "core/eval.hh"
#include "exec/thread_pool.hh"
#include "stats/stat_registry.hh"
#include "trace/span_tracer.hh"

namespace eval {
namespace {

ExperimentContext &
sharedContext()
{
    static ExperimentConfig cfg = [] {
        ExperimentConfig c = ExperimentConfig::fromEnv();
        c.chips = 1;
        c.simInsts = 60000;
        return c;
    }();
    static ExperimentContext ctx(cfg);
    return ctx;
}

const PhaseCharacterization &
swimPhase()
{
    static const PhaseCharacterization phase =
        sharedContext().characterizations().get(appByName("swim"))
            .phases[0].chr;
    return phase;
}

void
BM_FuzzyInference(benchmark::State &state)
{
    ExperimentContext &ctx = sharedContext();
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    const CoreFuzzySystem &fc = ctx.coreFuzzy(0, 0, caps);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fc.predictFmax(SubsystemId::Icache, 65.0, 0.3, false));
    }
}
BENCHMARK(BM_FuzzyInference);

void
BM_CoreFuzzyTrain(benchmark::State &state)
{
    // One core's tester-time training (Sec 4.3.1): exhaustive labels
    // plus the gradient passes of every fmax/Vdd/Vbb FC, in Fig 13
    // environment D (TS+ABB+ASV, FU+Queue).  Each iteration draws a
    // fresh seed so the labels are new queries, as in a campaign.
    ExperimentContext &ctx = sharedContext();
    const EnvCapabilities caps = fig13Caps(fig13VoltageEnvs()[3]);
    const CoreSystemModel &core = ctx.coreModel(0, 0);
    FuzzyTrainingConfig tcfg;
    for (auto _ : state) {
        ++tcfg.seed;
        CoreFuzzySystem sys(core, caps, ctx.config().constraints, tcfg);
        sys.train();
        benchmark::DoNotOptimize(sys.trained());
    }
}
BENCHMARK(BM_CoreFuzzyTrain)->Unit(benchmark::kMillisecond);

void
BM_FuzzyTrainStep(benchmark::State &state)
{
    // One Eq 13 gradient step of a fully seeded 25-rule FC over the
    // 8 inputs of a Power-algorithm controller.
    constexpr std::size_t kInputs = 8;
    constexpr std::size_t kExamples = 1024;
    Rng rng(0xF57E);
    std::vector<std::vector<double>> xs(kExamples);
    std::vector<double> ys(kExamples);
    for (std::size_t k = 0; k < kExamples; ++k) {
        xs[k].resize(kInputs);
        for (double &v : xs[k])
            v = rng.uniform();
        ys[k] = rng.uniform();
    }
    FuzzyController fc(25, kInputs);
    for (std::size_t k = 0; k < 25; ++k)
        fc.train(xs[k], ys[k], 0.04, rng);
    std::size_t k = 0;
    for (auto _ : state) {
        fc.train(xs[k], ys[k], 0.04, rng);
        k = (k + 1) % kExamples;
    }
    benchmark::DoNotOptimize(fc.infer(xs[0]));
}
BENCHMARK(BM_FuzzyTrainStep);

void
BM_FuzzyControllerFullInvocation(benchmark::State &state)
{
    // The "6us on a 4GHz processor" claim: one full controller pass
    // over all subsystems (Freq + Power algorithms via FCs).
    ExperimentContext &ctx = sharedContext();
    const EnvCapabilities caps =
        environmentCaps(EnvironmentKind::TS_ASV_Q_FU);
    FuzzyOptimizer fuzzy(ctx.coreFuzzy(0, 0, caps));
    CoreOptimizer opt(fuzzy, caps, ctx.config().constraints,
                      ctx.config().recovery);
    CoreSystemModel &core = ctx.coreModel(0, 0);
    core.setAppType(true);
    const PhaseCharacterization &phase = swimPhase();   // outside timing
    for (auto _ : state)
        benchmark::DoNotOptimize(opt.choose(core, phase, 65.0));
}
BENCHMARK(BM_FuzzyControllerFullInvocation);

void
BM_ExhaustiveFullInvocation(benchmark::State &state)
{
    // What the controller replaces: the same decision by exhaustive
    // search ("too expensive to execute on-the-fly", Sec 4.3.1).
    ExperimentContext &ctx = sharedContext();
    const EnvCapabilities caps =
        environmentCaps(EnvironmentKind::TS_ASV_Q_FU);
    ExhaustiveOptimizer exh(caps, ctx.config().constraints);
    CoreOptimizer opt(exh, caps, ctx.config().constraints,
                      ctx.config().recovery);
    CoreSystemModel &core = ctx.coreModel(0, 0);
    core.setAppType(true);
    const PhaseCharacterization &phase = swimPhase();   // outside timing
    for (auto _ : state)
        benchmark::DoNotOptimize(opt.choose(core, phase, 65.0));
}
BENCHMARK(BM_ExhaustiveFullInvocation);

const StageErrorModel &
icacheErrorModel()
{
    return sharedContext()
        .coreModel(0, 0)
        .subsystem(SubsystemId::Icache)
        .errorModel(false);
}

void
BM_ThermalSolve(benchmark::State &state)
{
    // One subsystem's Eq 6-9 fixed-point solve.
    ExperimentContext &ctx = sharedContext();
    const ThermalModel &thermal = *ctx.thermalModel();
    const auto &power =
        ctx.powerParams()[static_cast<std::size_t>(SubsystemId::IntALU)];
    for (auto _ : state) {
        benchmark::DoNotOptimize(thermal.solveSubsystem(
            power, SubsystemId::IntALU, 0.15, 1.1, 0.0, 4.5e9, 0.7,
            65.0));
    }
}
BENCHMARK(BM_ThermalSolve);

void
BM_ErrorRateQuery(benchmark::State &state)
{
    // One PE query: delay scale plus bucket lookup.
    const StageErrorModel &model = icacheErrorModel();
    const OperatingConditions op{1.0, 0.0, 70.0};
    for (auto _ : state)
        benchmark::DoNotOptimize(model.errorRatePerAccess(2.4e-10, op));
}
BENCHMARK(BM_ErrorRateQuery);

void
BM_MaxFrequencyQuery(benchmark::State &state)
{
    // The Freq algorithm's inner query: the highest frequency whose
    // PE stays within a budget.
    const StageErrorModel &model = icacheErrorModel();
    const OperatingConditions op{1.0, 0.0, 70.0};
    const double budgets[] = {0.0, 1e-6, 1e-4, 1e-2};
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.maxFrequencyForErrorRate(budgets[i++ % 4], op));
    }
}
BENCHMARK(BM_MaxFrequencyQuery);

void
BM_PathPopulationBuild(benchmark::State &state)
{
    // Manufacturing-time cost of one subsystem's timing paths.
    const Chip &chip = sharedContext().chip(0);
    std::uint64_t stream = 0x2000;
    for (auto _ : state) {
        Rng rng = chip.forkRng(stream++);
        benchmark::DoNotOptimize(buildPathPopulation(
            chip, 0, SubsystemId::Icache, PathPopulationParams{}, rng));
    }
}
BENCHMARK(BM_PathPopulationBuild);

void
BM_TraceGeneration(benchmark::State &state)
{
    SyntheticTrace trace(appByName("gcc"), 1);
    MicroOp op;
    for (auto _ : state) {
        trace.next(op);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_CoreSimulation(benchmark::State &state)
{
    // Instructions simulated per second by the core model.
    CoreConfig cfg;
    Core core(cfg, 1);
    SyntheticTrace trace(appByName("gzip"), 1);
    core.run(trace, 50000);   // warm
    for (auto _ : state)
        benchmark::DoNotOptimize(core.run(trace, 10000));
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CoreSimulation);

void
BM_ChipManufacture(benchmark::State &state)
{
    ProcessParams params;
    ChipFactory factory(params, 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(factory.manufacture());
}
BENCHMARK(BM_ChipManufacture);

void
BM_CounterContended(benchmark::State &state)
{
    // StatRegistry hot-path increment under concurrency: every pool
    // thread bumps the same Counter.  Each thread writes its own
    // padded slot, so the 4-thread time per inc should stay close to
    // the 1-thread time (no cache line moves between cores).
    static Counter &counter =
        StatRegistry::global().counter("microbench.contended");
    for (auto _ : state)
        counter.inc();
}
BENCHMARK(BM_CounterContended)->Threads(1)->Threads(4);

void
BM_ScopedSpanDisabled(benchmark::State &state)
{
    // The disabled ScopedSpan guarantee: one relaxed atomic load, no
    // clock read, no allocation — the cost every instrumented hot
    // path pays when --profile-out is off.
    SpanTracer::global().setEnabled(false);
    for (auto _ : state) {
        ScopedSpan span("microbench.disabled");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ScopedSpanDisabled)->Threads(1)->Threads(4);

void
BM_ScopedSpanEnabled(benchmark::State &state)
{
    // Enabled recording: two clock reads plus one fold into the
    // thread's own profile under its uncontended mutex.
    SpanTracer::global().setEnabled(true);
    for (auto _ : state) {
        ScopedSpan span("microbench.enabled");
        benchmark::DoNotOptimize(&span);
    }
    SpanTracer::global().setEnabled(false);
    SpanTracer::global().clear();
}
BENCHMARK(BM_ScopedSpanEnabled)->Threads(1)->Threads(4);

} // namespace
} // namespace eval

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // EVAL_THREADS when set, hardware concurrency otherwise.
    eval::setGlobalThreads(0);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
