#include "core/environment.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/perf_model.hh"
#include "exec/thread_pool.hh"
#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

const char *
environmentName(EnvironmentKind kind)
{
    switch (kind) {
      case EnvironmentKind::Baseline:     return "Baseline";
      case EnvironmentKind::TS:           return "TS";
      case EnvironmentKind::TS_ASV:       return "TS+ASV";
      case EnvironmentKind::TS_ASV_ABB:   return "TS+ASV+ABB";
      case EnvironmentKind::TS_ASV_Q:     return "TS+ASV+Q";
      case EnvironmentKind::TS_ASV_Q_FU:  return "TS+ASV+Q+FU";
      case EnvironmentKind::ALL:          return "ALL";
      case EnvironmentKind::NoVar:        return "NoVar";
    }
    return "?";
}

EnvCapabilities
environmentCaps(EnvironmentKind kind)
{
    EnvCapabilities caps;
    switch (kind) {
      case EnvironmentKind::Baseline:
      case EnvironmentKind::NoVar:
        break;
      case EnvironmentKind::TS:
        caps.timingSpec = true;
        break;
      case EnvironmentKind::TS_ASV:
        caps.timingSpec = caps.asv = true;
        break;
      case EnvironmentKind::TS_ASV_ABB:
        caps.timingSpec = caps.asv = caps.abb = true;
        break;
      case EnvironmentKind::TS_ASV_Q:
        caps.timingSpec = caps.asv = caps.queueResize = true;
        break;
      case EnvironmentKind::TS_ASV_Q_FU:
        caps.timingSpec = caps.asv = caps.queueResize =
            caps.fuReplication = true;
        break;
      case EnvironmentKind::ALL:
        caps.timingSpec = caps.asv = caps.abb = caps.queueResize =
            caps.fuReplication = true;
        break;
    }
    return caps;
}

const char *
adaptSchemeName(AdaptScheme s)
{
    switch (s) {
      case AdaptScheme::Static:   return "Static";
      case AdaptScheme::FuzzyDyn: return "Fuzzy-Dyn";
      case AdaptScheme::ExhDyn:   return "Exh-Dyn";
    }
    return "?";
}

const std::array<VoltageEnv, kNumVoltageEnvs> &
fig13VoltageEnvs()
{
    static const std::array<VoltageEnv, kNumVoltageEnvs> envs = {{
        {"a_ts", false, false},
        {"b_ts_abb", true, false},
        {"c_ts_asv", false, true},
        {"d_ts_abb_asv", true, true},
    }};
    return envs;
}

EnvCapabilities
fig13Caps(const VoltageEnv &env)
{
    EnvCapabilities caps;
    caps.timingSpec = true;
    caps.abb = env.abb;
    caps.asv = env.asv;
    caps.fuReplication = true;
    caps.queueResize = true;
    return caps;
}

std::uint64_t
invocationCount(const OutcomeTally &tally)
{
    return std::accumulate(tally.begin(), tally.end(), std::uint64_t{0});
}

ExperimentConfig
ExperimentConfig::fromEnv()
{
    ExperimentConfig cfg;
    const RunConfig rc = RunConfig::fromEnv();
    cfg.seed = rc.seed;
    cfg.chips = rc.chips;
    cfg.simInsts = static_cast<std::uint64_t>(
        envInt("EVAL_SIM_INSTS", 160000));
    cfg.apps = rc.apps;
    if (rc.fast) {
        cfg.chips = std::min(cfg.chips, 8);
        cfg.simInsts = std::min<std::uint64_t>(cfg.simInsts, 60000);
    }
    return cfg;
}

std::string
ExperimentConfig::fingerprint() const
{
    std::ostringstream os;
    os << "seed=" << seed << ";chips=" << chips
       << ";insts=" << simInsts << ";apps=";
    for (std::size_t i = 0; i < apps.size(); ++i)
        os << (i ? "," : "") << apps[i];
    os << ";fnom=" << process.freqNominal
       << ";vdd=" << process.vddNominal
       << ";vt_sigma=" << process.vtSigmaOverMu
       << ";tmax=" << constraints.tMaxC
       << ";pe_budget=" << constraints.peMax
       << ";recovery=" << recovery.penaltyCycles;
    return os.str();
}

ExperimentContext::ExperimentContext(const ExperimentConfig &cfg)
    : cfg_(cfg),
      power_(calibratePower(cfg.process, cfg.powerCal)),
      thermal_(std::make_shared<ThermalModel>(cfg.process)),
      factory_(cfg.process, cfg.seed),
      chars_(cfg.recovery, cfg.process.freqNominal, cfg.seed ^ 0x5EED,
             cfg.simInsts)
{
    // Population chips are manufactured lazily by chip(); only the
    // ideal (NoVar) reference is built up front.  Its identity is the
    // id the old eager constructor gave it — the cursor position
    // after manufacturing the whole population — because the ideal
    // chip's personality depends on its id and every golden pins it.
    idealChip_ = std::make_unique<Chip>(factory_.manufactureIdealAt(
        static_cast<std::uint64_t>(cfg_.chips)));
}

const Chip &
ExperimentContext::chip(std::size_t index)
{
    EVAL_ASSERT(index < numChips(), "chip index out of range");
    {
        std::lock_guard<std::mutex> lock(chipsMutex_);
        auto it = chipCache_.find(index);
        if (it != chipCache_.end())
            return *it->second;
    }
    // Manufacture outside the lock (per-chip tasks materialize
    // distinct chips); emplace keeps the first copy if two tasks
    // raced, and map nodes are stable so references survive inserts.
    auto made = std::make_unique<Chip>(
        factory_.manufactureAt(static_cast<std::uint64_t>(index)));
    std::lock_guard<std::mutex> lock(chipsMutex_);
    return *chipCache_.emplace(index, std::move(made)).first->second;
}

void
ExperimentContext::evictChip(std::size_t index)
{
    // Dependents first (models reference the chip; fuzzy controllers
    // and static configs were derived from the models), chip last.
    {
        std::lock_guard<std::mutex> lock(fuzzyMutex_);
        for (auto it = fuzzy_.begin(); it != fuzzy_.end();) {
            if (std::get<0>(it->first) == index)
                it = fuzzy_.erase(it);
            else
                ++it;
        }
    }
    {
        std::lock_guard<std::mutex> lock(staticMutex_);
        for (auto it = staticConfigs_.begin();
             it != staticConfigs_.end();) {
            if (std::get<0>(it->first) == index)
                it = staticConfigs_.erase(it);
            else
                ++it;
        }
    }
    {
        std::lock_guard<std::mutex> lock(modelsMutex_);
        for (auto it = models_.begin(); it != models_.end();) {
            if (it->first.first == index)
                it = models_.erase(it);
            else
                ++it;
        }
    }
    std::lock_guard<std::mutex> lock(chipsMutex_);
    chipCache_.erase(index);
}

std::vector<const AppProfile *>
ExperimentContext::selectedApps() const
{
    std::vector<std::string> names = cfg_.apps;
    if (names.empty())
        names = RunConfig::fromEnv().apps;
    std::vector<const AppProfile *> apps;
    if (names.empty()) {
        for (const auto &p : specSuite())
            apps.push_back(&p);
    } else {
        for (const auto &name : names)
            apps.push_back(&appByName(name));
    }
    return apps;
}

CoreSystemModel &
ExperimentContext::coreModel(std::size_t chipIndex, std::size_t core)
{
    EVAL_ASSERT(chipIndex < numChips(), "chip index out of range");
    const auto key = std::make_pair(chipIndex, core);
    {
        std::lock_guard<std::mutex> lock(modelsMutex_);
        auto it = models_.find(key);
        if (it != models_.end())
            return *it->second;
    }
    // Build outside the lock: per-chip tasks construct distinct
    // models, so serializing construction would flatten the fan-out.
    // std::map nodes are stable, so references survive later inserts;
    // emplace keeps the first entry if someone raced us to this key.
    auto model = std::make_unique<CoreSystemModel>(
        chip(chipIndex), core, power_, cfg_.powerCal, thermal_);
    std::lock_guard<std::mutex> lock(modelsMutex_);
    return *models_.emplace(key, std::move(model)).first->second;
}

CoreSystemModel &
ExperimentContext::idealCoreModel()
{
    std::lock_guard<std::mutex> lock(idealMutex_);
    if (!idealModel_) {
        idealModel_ = std::make_unique<CoreSystemModel>(
            *idealChip_, 0, power_, cfg_.powerCal, thermal_);
    }
    return *idealModel_;
}

const CoreFuzzySystem &
ExperimentContext::coreFuzzy(std::size_t chipIndex, std::size_t core,
                             const EnvCapabilities &caps)
{
    const int capsKey = (caps.asv ? 1 : 0) | (caps.abb ? 2 : 0);
    const auto key = std::make_tuple(chipIndex, core, capsKey);
    {
        std::lock_guard<std::mutex> lock(fuzzyMutex_);
        auto it = fuzzy_.find(key);
        if (it != fuzzy_.end())
            return *it->second;
    }
    // Train outside the lock (training is the expensive part and each
    // chip task trains its own key); emplace keeps the winner if two
    // tasks ever raced on the same key.
    FuzzyTrainingConfig tcfg;
    tcfg.examplesPerFc = static_cast<std::size_t>(envInt(
        "EVAL_FC_EXAMPLES",
        static_cast<std::int64_t>(tcfg.examplesPerFc)));
    tcfg.seed = cfg_.seed ^ (chipIndex * 131 + core * 17 + capsKey);
    auto sys = std::make_unique<CoreFuzzySystem>(
        coreModel(chipIndex, core), caps, cfg_.constraints, tcfg);
    inform("training fuzzy controllers for chip ", chipIndex,
           " core ", core, " (", tcfg.examplesPerFc,
           " examples per FC)");
    sys->train();
    std::lock_guard<std::mutex> lock(fuzzyMutex_);
    return *fuzzy_.emplace(key, std::move(sys)).first->second;
}

const OperatingPoint &
ExperimentContext::staticConfig(std::size_t chipIndex, std::size_t core,
                                const EnvCapabilities &caps, bool fpApp)
{
    const int capsKey = (caps.asv ? 1 : 0) | (caps.abb ? 2 : 0) |
                        (caps.queueResize ? 4 : 0) |
                        (caps.fuReplication ? 8 : 0);
    const auto key = std::make_tuple(chipIndex, core, capsKey, fpApp);
    {
        std::lock_guard<std::mutex> lock(staticMutex_);
        auto it = staticConfigs_.find(key);
        if (it != staticConfigs_.end())
            return it->second;
    }
    // Qualify outside the lock: it drives this chip's own core model,
    // which only this chip's task touches.
    CoreSystemModel &model = coreModel(chipIndex, core);
    model.setAppType(fpApp);
    ExhaustiveOptimizer exh(caps, cfg_.constraints);
    StaticQualifier qualifier(exh, caps, cfg_.constraints,
                              cfg_.recovery);
    const PhaseCharacterization stress = stressCharacterization(
        power_, cfg_.recovery, cfg_.process.freqNominal);
    OperatingPoint op =
        qualifier.qualify(model, stress, cfg_.constraints.thMaxC);
    std::lock_guard<std::mutex> lock(staticMutex_);
    return staticConfigs_.emplace(key, op).first->second;
}

ExperimentContext::EnvRun
ExperimentContext::evaluateFixed(CoreSystemModel &core,
                                 const OperatingPoint &op,
                                 const PhaseData &phase, double thC,
                                 bool includeChecker,
                                 double pePerInstr) const
{
    const CoreEvaluation ev = core.evaluate(op, phase.chr.act, thC);
    EnvRun run;
    run.freq = op.freq;
    run.pe = pePerInstr >= 0.0 ? pePerInstr : ev.pePerInstruction;
    const PerfInputs &in =
        op.smallQueue ? phase.chr.perfSmall : phase.chr.perfFull;
    run.perf = performance(op.freq, run.pe, in);
    run.power = ev.totalPowerW;
    if (includeChecker) {
        run.power += cfg_.powerCal.checkerPowerW *
                     (op.freq / cfg_.process.freqNominal);
    }
    return run;
}

AppRunResult
ExperimentContext::runNoVar(const AppProfile &app)
{
    // Characterize before taking the ideal-model lock (chars_ has its
    // own synchronization; no need to serialize on both).
    const AppCharacterization &chr = chars_.get(app);

    // The ideal model is shared by every task, and this run mutates
    // it (setAppType) and iterates it, so the whole run serializes.
    std::lock_guard<std::mutex> lock(idealMutex_);
    if (!idealModel_) {
        idealModel_ = std::make_unique<CoreSystemModel>(
            *idealChip_, 0, power_, cfg_.powerCal, thermal_);
    }
    CoreSystemModel &core = *idealModel_;
    core.setAppType(app.isFp);
    const OperatingPoint op = nominalOperatingPoint(cfg_.process);

    double thC = 60.0;
    AppRunResult result;
    for (int iter = 0; iter < 2; ++iter) {
        double wSum = 0.0, freq = 0.0, perf = 0.0, power = 0.0, pe = 0.0;
        for (const PhaseData &phase : chr.phases) {
            const EnvRun run =
                evaluateFixed(core, op, phase, thC, false, 0.0);
            wSum += phase.weight;
            freq += phase.weight * run.freq;
            perf += phase.weight * run.perf;
            power += phase.weight * run.power;
            pe += phase.weight * run.pe;
        }
        result.freqRel = freq / wSum / cfg_.process.freqNominal;
        result.powerW = power / wSum;
        result.pePerInstr = pe / wSum;
        result.perfRel = perf / wSum;   // absolute for now
        thC = heatsink_.tempC(4.0 * result.powerW);
    }
    return result;
}

const AppRunResult &
ExperimentContext::novarRun(const AppProfile &app)
{
    {
        std::lock_guard<std::mutex> lock(novarMutex_);
        auto it = novarRunCache_.find(app.name);
        if (it != novarRunCache_.end())
            return it->second;
    }
    // runNoVar is deterministic per app, so a concurrent first miss
    // computes the same value twice; emplace keeps one copy.  Map
    // nodes are stable, so the returned reference outlives later
    // inserts.
    const AppRunResult res = runNoVar(app);
    std::lock_guard<std::mutex> lock(novarMutex_);
    return novarRunCache_.emplace(app.name, res).first->second;
}

double
ExperimentContext::novarPerf(const AppProfile &app)
{
    return novarRun(app).perfRel;
}

AppRunResult
ExperimentContext::runBaseline(CoreSystemModel &core,
                               const AppCharacterization &app)
{
    // The plain processor ships at its worst-case safe frequency;
    // no checker, no knobs.
    KnobSpace grid;
    const double rated = grid.freq.quantizeDown(
        std::min(core.baselineFrequency(),
                 cfg_.process.freqNominal * 1.4));

    OperatingPoint op = nominalOperatingPoint(cfg_.process);
    op.freq = std::max(rated, grid.freq.lo());

    double thC = 60.0;
    AppRunResult result;
    for (int iter = 0; iter < 2; ++iter) {
        double wSum = 0.0, perf = 0.0, power = 0.0;
        for (const PhaseData &phase : app.phases) {
            const EnvRun run =
                evaluateFixed(core, op, phase, thC, false, 0.0);
            wSum += phase.weight;
            perf += phase.weight * run.perf;
            power += phase.weight * run.power;
        }
        result.freqRel = op.freq / cfg_.process.freqNominal;
        result.perfRel = perf / wSum;   // normalized by caller
        result.powerW = power / wSum;
        result.pePerInstr = 0.0;
        thC = heatsink_.tempC(4.0 * result.powerW);
    }
    return result;
}

AppRunResult
ExperimentContext::runManaged(std::size_t chipIndex, std::size_t coreIdx,
                              const AppCharacterization &app,
                              EnvironmentKind env, AdaptScheme scheme)
{
    const EnvCapabilities caps = environmentCaps(env);
    EVAL_ASSERT(caps.timingSpec, "managed run requires TS");
    CoreSystemModel &core = coreModel(chipIndex, coreIdx);
    DecisionTrace::global().setContext(static_cast<int>(chipIndex),
                                       static_cast<int>(coreIdx));

    AppRunResult result;
    const KnobSpace grid = caps.knobSpace();

    if (scheme == AdaptScheme::Static) {
        const OperatingPoint op = staticConfig(chipIndex, coreIdx, caps,
                                               app.isFp);

        double thC = 65.0;
        for (int iter = 0; iter < 2; ++iter) {
            double wSum = 0.0, freq = 0.0, perf = 0.0, power = 0.0,
                   pe = 0.0;
            for (const PhaseData &phase : app.phases) {
                // Runtime safety governor: throttle (downward only)
                // if the fixed configuration violates under this app.
                OperatingPoint phaseOp = op;
                RetuningController sentinel(cfg_.constraints, grid, true);
                for (int guard = 0; guard < 40; ++guard) {
                    const CoreEvaluation ev =
                        core.evaluate(phaseOp, phase.chr.act, thC);
                    const bool bad =
                        !ev.meets(cfg_.constraints) ||
                        sentinel.sensedPower(core, ev, phaseOp.freq) >
                            cfg_.constraints.pMaxW;
                    if (!bad || phaseOp.freq <= grid.freq.lo())
                        break;
                    phaseOp.freq = grid.freq.quantizeDown(
                        phaseOp.freq - grid.freq.step());
                }
                const CoreEvaluation ev =
                    core.evaluate(phaseOp, phase.chr.act, thC);
                const EnvRun run = evaluateFixed(
                    core, phaseOp, phase, thC, true,
                    ev.pePerInstruction);
                wSum += phase.weight;
                freq += phase.weight * phaseOp.freq;
                perf += phase.weight * run.perf;
                power += phase.weight * run.power;
                pe += phase.weight * run.pe;
            }
            result.freqRel = freq / wSum / cfg_.process.freqNominal;
            result.perfRel = perf / wSum;
            result.powerW = power / wSum;
            result.pePerInstr = pe / wSum;
            thC = heatsink_.tempC(4.0 * result.powerW);
        }
        return result;
    }

    // Dynamic schemes: phase-triggered adaptation with saved configs.
    const std::unique_ptr<SubsystemOptimizer> sub =
        makeOptimizer(chipIndex, coreIdx, caps, scheme);
    DynamicController ctl(*sub, caps, cfg_.constraints, cfg_.recovery);
    double thC = 65.0;
    for (int iter = 0; iter < 2; ++iter) {
        double wSum = 0.0, freq = 0.0, perf = 0.0, power = 0.0, pe = 0.0;
        for (std::size_t p = 0; p < app.phases.size(); ++p) {
            const PhaseData &phase = app.phases[p];
            const PhaseAdaptation ad =
                ctl.adaptPhase(core, p, phase.chr, thC);

            const PerfInputs &in = ad.op.smallQueue
                                       ? phase.chr.perfSmall
                                       : phase.chr.perfFull;
            const double overhead =
                ad.reusedSaved
                    ? cfg_.timeline.transitionS / cfg_.timeline.phaseLengthS
                    : cfg_.timeline.overheadFraction(ad.retuneSteps);
            const double phasePerf =
                performance(ad.op.freq, ad.eval.pePerInstruction, in) *
                (1.0 - clamp(overhead, 0.0, 0.5));
            const double phasePower =
                ad.eval.totalPowerW +
                cfg_.powerCal.checkerPowerW *
                    (ad.op.freq / cfg_.process.freqNominal);

            wSum += phase.weight;
            freq += phase.weight * ad.op.freq;
            perf += phase.weight * phasePerf;
            power += phase.weight * phasePower;
            pe += phase.weight * ad.eval.pePerInstruction;

            if (iter == 0 && !ad.reusedSaved)
                result.outcomes.push_back(ad.outcome);
        }
        result.freqRel = freq / wSum / cfg_.process.freqNominal;
        result.perfRel = perf / wSum;
        result.powerW = power / wSum;
        result.pePerInstr = pe / wSum;
        thC = heatsink_.tempC(4.0 * result.powerW);
    }
    return result;
}

std::unique_ptr<SubsystemOptimizer>
ExperimentContext::makeOptimizer(std::size_t chipIndex, std::size_t core,
                                 const EnvCapabilities &caps,
                                 AdaptScheme scheme)
{
    if (scheme == AdaptScheme::FuzzyDyn)
        return std::make_unique<FuzzyOptimizer>(
            coreFuzzy(chipIndex, core, caps));
    return std::make_unique<ExhaustiveOptimizer>(caps, cfg_.constraints);
}

AppRunResult
ExperimentContext::runApp(std::size_t chipIndex, std::size_t core,
                          const AppProfile &app, EnvironmentKind env,
                          AdaptScheme scheme)
{
    ScopedSpan span("experiment.run_app");
    span.arg("app", app.name);
    span.arg("chip", chipIndex);
    span.arg("core", core);
    span.arg("env", environmentName(env));
    StatRegistry::global().counter("experiment.app_runs").inc();

    if (env == EnvironmentKind::NoVar) {
        AppRunResult res = novarRun(app);
        res.perfRel = 1.0;
        res.freqRel = 1.0;
        return res;
    }

    CoreSystemModel &model = coreModel(chipIndex, core);
    model.setAppType(app.isFp);
    const AppCharacterization &chr = chars_.get(app);
    const double reference = novarPerf(app);

    AppRunResult res;
    if (env == EnvironmentKind::Baseline)
        res = runBaseline(model, chr);
    else
        res = runManaged(chipIndex, core, chr, env, scheme);

    res.perfRel = reference > 0.0 ? res.perfRel / reference : 0.0;
    return res;
}

OutcomeTally
ExperimentContext::adaptApps(std::size_t chipIndex,
                             const EnvCapabilities &caps,
                             AdaptScheme scheme)
{
    EVAL_ASSERT(scheme != AdaptScheme::Static,
                "Fig 13 tallies dynamic-controller invocations");
    const auto apps = selectedApps();
    OutcomeTally tally{};
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const AppProfile &app = *apps[a];
        const std::size_t coreIdx = (chipIndex + a) % 4;
        CoreSystemModel &core = coreModel(chipIndex, coreIdx);
        core.setAppType(app.isFp);
        // Fresh optimizer + controller per app: the controller's
        // saved-config table must not leak across apps or envs.
        const std::unique_ptr<SubsystemOptimizer> sub =
            makeOptimizer(chipIndex, coreIdx, caps, scheme);
        DynamicController ctl(*sub, caps, cfg_.constraints,
                              cfg_.recovery);
        const AppCharacterization &chr = chars_.get(app);
        for (std::size_t p = 0; p < chr.phases.size(); ++p) {
            const PhaseAdaptation ad =
                ctl.adaptPhase(core, p, chr.phases[p].chr, 65.0);
            if (!ad.reusedSaved)
                ++tally[static_cast<std::size_t>(ad.outcome)];
        }
    }
    return tally;
}

namespace {

/** Add one app run to a sweep cell's running sums. */
void
addRun(SweepCell &sum, const AppRunResult &r)
{
    sum.freqRel += r.freqRel;
    sum.perfRel += r.perfRel;
    sum.powerW += r.powerW;
    for (RetuneOutcome o : r.outcomes)
        ++sum.outcomes[static_cast<std::size_t>(o)];
    ++sum.runs;
}

} // namespace

std::vector<SweepCell>
ExperimentContext::sweep(const std::vector<SweepKey> &cells)
{
    const auto apps = selectedApps();
    // The NoVar reference runs on the shared ideal model, which
    // serializes; warm it before the fan-out.
    for (const AppProfile *app : apps)
        novarPerf(*app);

    const auto perChip = globalPool().parallelMap(
        numChips(), [&](std::size_t chip) {
            std::vector<SweepCell> sums(cells.size());
            for (std::size_t a = 0; a < apps.size(); ++a) {
                const std::size_t coreIdx = (chip + a) % 4;
                for (std::size_t c = 0; c < cells.size(); ++c) {
                    addRun(sums[c],
                           runApp(chip, coreIdx, *apps[a], cells[c].env,
                                  cells[c].scheme));
                }
            }
            return sums;
        });

    std::vector<SweepCell> total(cells.size());
    for (const std::vector<SweepCell> &sums : perChip) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            total[c].freqRel += sums[c].freqRel;
            total[c].perfRel += sums[c].perfRel;
            total[c].powerW += sums[c].powerW;
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                total[c].outcomes[o] += sums[c].outcomes[o];
            total[c].runs += sums[c].runs;
        }
    }
    for (SweepCell &cell : total) {
        if (cell.runs == 0)
            continue;
        const double n = static_cast<double>(cell.runs);
        cell.freqRel /= n;
        cell.perfRel /= n;
        cell.powerW /= n;
    }
    return total;
}

} // namespace eval
