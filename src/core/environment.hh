/**
 * @file
 * The Table 1 environments and the experiment driver used by every
 * paper experiment: manufacture chips, characterize workloads, run an
 * application on a core under an environment + adaptation scheme, and
 * report the relative frequency / performance / power metrics of
 * Figures 10-12.  ExperimentContext::sweep is the one Figure 10-12 loop
 * (eval_paper, goldens and eval_cli all call it); adaptApps is the one
 * Figure 13 unit and adaptPopulation the one Figure 13 cell loop.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <memory>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "core/controller.hh"
#include "core/fuzzy_adaptation.hh"
#include "core/subsystem_model.hh"
#include "thermal/thermal_model.hh"
#include "util/config.hh"
#include "variation/chip.hh"

namespace eval {

/** Table 1. */
enum class EnvironmentKind {
    Baseline,       ///< plain processor with variation effects
    TS,             ///< + Diva checker (timing speculation)
    TS_ASV,         ///< + per-subsystem adaptive supply voltage
    TS_ASV_ABB,     ///< + adaptive body bias
    TS_ASV_Q,       ///< TS+ASV + issue-queue resizing
    TS_ASV_Q_FU,    ///< + FU replication (the preferred scheme)
    ALL,            ///< everything incl. ABB
    NoVar           ///< plain processor without variation
};

const char *environmentName(EnvironmentKind kind);
EnvCapabilities environmentCaps(EnvironmentKind kind);

/** Adaptation scheme applied to TS-family environments (Sec 6.2). */
enum class AdaptScheme { Static, FuzzyDyn, ExhDyn };

const char *adaptSchemeName(AdaptScheme s);

/** Figure 13's voltage environments: A TS, B TS+ABB, C TS+ASV,
 *  D TS+ABB+ASV. */
struct VoltageEnv
{
    const char *tag;
    bool abb;
    bool asv;
};

constexpr std::size_t kNumVoltageEnvs = 4;

const std::array<VoltageEnv, kNumVoltageEnvs> &fig13VoltageEnvs();

/** Capabilities of one Fig 13 voltage environment under the FU+Queue
 *  technique set (TS + FU + Queue plus the env's ABB/ASV bits); the
 *  other technique rows clear fuReplication / queueResize. */
EnvCapabilities fig13Caps(const VoltageEnv &env);

/** Fresh-retune invocations per RetuneOutcome (one Fig 13 bar). */
using OutcomeTally = std::array<std::uint64_t, kNumRetuneOutcomes>;

/** Total invocations of a tally (the sum over outcomes). */
std::uint64_t invocationCount(const OutcomeTally &tally);

/** Per-(app, chip, core, environment, scheme) result. */
struct AppRunResult
{
    double freqRel = 0.0;    ///< time-weighted f / f_nominal
    double perfRel = 0.0;    ///< vs NoVar on the same application
    double powerW = 0.0;     ///< core + L1 + L2 (+ checker), Figure 12
    double pePerInstr = 0.0;
    /** Controller outcomes, one per *new-phase* invocation (Fig 13). */
    std::vector<RetuneOutcome> outcomes;
};

/** One (environment, scheme) cell of the Figure 10-12 sweep.  For
 *  Baseline and NoVar the scheme is ignored (pass Static). */
struct SweepKey
{
    EnvironmentKind env;
    AdaptScheme scheme;
};

/** Means of one sweep cell over every (chip, app) run. */
struct SweepCell
{
    double freqRel = 0.0;
    double perfRel = 0.0;
    double powerW = 0.0;
    /** Fresh-retune outcomes of the dynamic schemes (Static: none). */
    OutcomeTally outcomes{};
    /** Samples behind the means: chips x selected apps. */
    std::uint64_t runs = 0;
};

/** Experiment-wide configuration. */
struct ExperimentConfig
{
    std::uint64_t seed = 1;
    int chips = 30;
    std::uint64_t simInsts = 160000;
    /** Application subset by name; empty = the full suite. */
    std::vector<std::string> apps;
    ProcessParams process;
    Constraints constraints;
    RecoveryModel recovery;
    PowerCalibration powerCal;
    TimelineParams timeline;

    /** The EVAL_* knobs: EVAL_SEED (default 1), EVAL_CHIPS (default
     *  30, at least 1), EVAL_SIM_INSTS (default 160000), EVAL_APPS
     *  (comma-separated subset) and EVAL_FAST (clamps to 8 chips and
     *  60000 instructions).  The only place they are read. */
    static ExperimentConfig fromEnv();

    /** Human-readable one-line fingerprint of every knob that changes
     *  results (seed, population, workload, process, constraints).
     *  Hash it (fnv1a) for the manifest's config_hash; two runs with
     *  equal fingerprints are replays of the same experiment. */
    std::string fingerprint() const;
};

/**
 * Owns the shared state of one experiment: the chip population, the
 * power/thermal calibration, the workload characterizations, and the
 * per-core EVAL models (built lazily).
 *
 * Thread-safety: designed for a per-chip fan-out (ThreadPool
 * parallelFor with one task per chip).  The lazy caches (core models,
 * fuzzy controllers, static configs, NoVar reference performance,
 * characterizations) are internally synchronized; each (chip, core)
 * pair must be driven by at most one task at a time because the
 * returned CoreSystemModel is stateful (setAppType, thermal iterate).
 * The ideal-chip model is shared across tasks, so runNoVar/novarPerf
 * serialize on it internally — prewarm novarPerf for the selected
 * apps before fanning out to keep that serialization off the
 * parallel path.
 */
class ExperimentContext
{
  public:
    explicit ExperimentContext(const ExperimentConfig &cfg);

    const ExperimentConfig &config() const { return cfg_; }

    /** Population size (chips are manufactured lazily; this is the
     *  configured count, not the resident count). */
    std::size_t
    numChips() const
    {
        return static_cast<std::size_t>(cfg_.chips);
    }

    /**
     * Chip @p index, manufactured on first use.  Chip @p i is a pure
     * function of (seed, i), so lazy manufacture returns exactly the
     * chip the old eager constructor held — but the campaign unit
     * evicts its chip on return, bounding resident VariationMaps to
     * the chips in flight, one per worker thread (DESIGN.md Sec 5h).
     */
    const Chip &chip(std::size_t index);

    /**
     * Drop chip @p index and every per-chip cache entry built from it
     * (core models, fuzzy controllers, static configs).  The caller
     * must no longer hold references into those caches for this chip.
     * Re-requesting the chip later remanufactures it bit-identically;
     * eviction is purely a memory-bound lever for streaming drivers.
     */
    void evictChip(std::size_t index);
    const std::array<SubsystemPowerParams, kNumSubsystems> &
    powerParams() const
    {
        return power_;
    }
    const std::shared_ptr<const ThermalModel> &thermalModel() const
    {
        return thermal_;
    }
    CharacterizationCache &characterizations() { return chars_; }

    /**
     * Characterize @p apps in parallel, one task per app.  Call it
     * before a per-chip fan-out: the chip tasks would otherwise all
     * wait on the cache's call_once for one app at a time.
     */
    void warmCharacterizations(const std::vector<const AppProfile *> &apps);

    /** The applications cfg.apps names, in order (empty: the full
     *  suite). */
    std::vector<const AppProfile *> selectedApps() const;

    /** Core model for (chip index, core), cached. */
    CoreSystemModel &coreModel(std::size_t chipIndex, std::size_t core);

    /** Core model of the ideal (no-variation) chip. */
    CoreSystemModel &idealCoreModel();

    /**
     * Trained fuzzy controllers for one core under a knob-capability
     * combination (trained lazily, cached for the context lifetime).
     */
    const CoreFuzzySystem &coreFuzzy(std::size_t chipIndex,
                                     std::size_t core,
                                     const EnvCapabilities &caps);

    /** Qualification-time static configuration for one core under a
     *  capability set (cached: qualification happens once per chip). */
    const OperatingPoint &staticConfig(std::size_t chipIndex,
                                       std::size_t core,
                                       const EnvCapabilities &caps,
                                       bool fpApp);

    /**
     * Run one application on one core under an environment/scheme.
     * For Baseline and NoVar the scheme is ignored.
     */
    AppRunResult runApp(std::size_t chipIndex, std::size_t core,
                        const AppProfile &app, EnvironmentKind env,
                        AdaptScheme scheme);

    /** NoVar performance of an application (instructions/s), cached. */
    double novarPerf(const AppProfile &app);

    /**
     * The Fig 13 unit: run the dynamic controller of @p scheme under
     * @p caps over every selected app on chip @p chipIndex (app a on
     * core (chip + a) % 4, a fresh optimizer and controller per app,
     * every phase adapted at a 65 C heat sink) and tally the outcomes
     * of the fresh retunes (saved-config reuses are not invocations).
     * Touches only per-chip caches, so chips may run in parallel.
     */
    OutcomeTally adaptApps(std::size_t chipIndex,
                           const EnvCapabilities &caps,
                           AdaptScheme scheme);

    /**
     * One Figure 13 cell: adaptApps on every chip of the population,
     * fanned out on globalPool() and folded in chip order, so the
     * tally is the same for every thread count.  The selected apps are
     * characterized (in parallel, once per context) before the fan-out.
     */
    OutcomeTally adaptPopulation(const EnvCapabilities &caps,
                                 AdaptScheme scheme);

    /**
     * The Figure 10-12 sweep: every selected app on every chip (app a
     * on core (chip + a) % 4) under each of @p cells, returned in
     * @p cells order.  Chips fan out on globalPool(); per-chip sums
     * are taken in app order and folded in chip order before the
     * division by `runs`, so the result is bit-identical for every
     * thread count, and a cell's result does not depend on which
     * other cells run beside it.  As in adaptPopulation, the selected
     * apps are characterized in parallel before the fan-out.
     */
    std::vector<SweepCell> sweep(const std::vector<SweepKey> &cells);

  private:
    struct EnvRun
    {
        double freq = 0.0;
        double perf = 0.0;
        double power = 0.0;
        double pe = 0.0;
    };

    /** Evaluate one phase at a fixed operating point (no adaptation). */
    EnvRun evaluateFixed(CoreSystemModel &core, const OperatingPoint &op,
                         const PhaseData &phase, double thC,
                         bool includeChecker, double pePerInstr) const;

    AppRunResult runNoVar(const AppProfile &app);
    /** Cached runNoVar (per app; runNoVar is deterministic). */
    const AppRunResult &novarRun(const AppProfile &app);
    AppRunResult runBaseline(CoreSystemModel &core,
                             const AppCharacterization &app);
    AppRunResult runManaged(std::size_t chipIndex, std::size_t core,
                            const AppCharacterization &app,
                            EnvironmentKind env, AdaptScheme scheme);
    /** The per-subsystem optimizer of a dynamic scheme: the core's
     *  trained fuzzy system for FuzzyDyn, an exhaustive scan
     *  otherwise. */
    std::unique_ptr<SubsystemOptimizer>
    makeOptimizer(std::size_t chipIndex, std::size_t core,
                  const EnvCapabilities &caps, AdaptScheme scheme);

    ExperimentConfig cfg_;
    std::array<SubsystemPowerParams, kNumSubsystems> power_;
    std::shared_ptr<const ThermalModel> thermal_;
    HeatsinkModel heatsink_;
    /** Stamps population chips on demand (pure in (seed, id)). */
    ChipFactory factory_;
    mutable std::mutex chipsMutex_;  ///< guards chipCache_ map shape
    std::map<std::size_t, std::unique_ptr<Chip>> chipCache_;
    std::unique_ptr<Chip> idealChip_;
    CharacterizationCache chars_;
    std::mutex modelsMutex_;   ///< guards models_ map shape
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<CoreSystemModel>> models_;
    /** Serializes idealModel_ creation and every runNoVar, which
     *  mutates the shared ideal model (setAppType). */
    std::mutex idealMutex_;
    std::unique_ptr<CoreSystemModel> idealModel_;
    std::mutex novarMutex_;    ///< guards novarRunCache_
    std::map<std::string, AppRunResult> novarRunCache_;
    std::mutex fuzzyMutex_;    ///< guards fuzzy_ map shape
    /** key: (chip, core, asv|abb<<1) */
    std::map<std::tuple<std::size_t, std::size_t, int>,
             std::unique_ptr<CoreFuzzySystem>> fuzzy_;
    std::mutex staticMutex_;   ///< guards staticConfigs_ map shape
    /** key: (chip, core, full caps bits, fpApp) */
    std::map<std::tuple<std::size_t, std::size_t, int, bool>,
             OperatingPoint> staticConfigs_;
};

} // namespace eval

