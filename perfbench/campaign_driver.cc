#include "campaign_driver.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>

#include "core/fuzzy_adaptation.hh"
#include "core/optimizer.hh"
#include "exec/thread_pool.hh"
#include "workload/profile.hh"

namespace perfbench {

using namespace eval;

namespace {

/** Heat-sink temperature of every Fig 13 invocation (as in
 *  runCampaignChip). */
constexpr double kThC = 65.0;

/** Cores per chip the campaign rotates apps over. */
constexpr std::size_t kCores = 4;

/** Process user+sys CPU seconds so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** runCampaignChip with layer timers (see runTracedCampaign). */
ChipCampaignResult
tracedChip(ExperimentContext &ctx, const CampaignConfig &campaign,
           std::size_t chip, ChipLedger &ledger)
{
    const double task0 = nowSeconds();

    double t = nowSeconds();
    ctx.chip(chip);
    ledger.manufactureS = nowSeconds() - t;
    for (std::size_t c = 0; c < kCores; ++c) {
        t = nowSeconds();
        ctx.coreModel(chip, c);
        ledger.modelBuildS.push_back(nowSeconds() - t);
    }

    // From here on, the body of runCampaignChip with timers around
    // coreFuzzy (first call per key trains) and adaptPhase.
    const auto apps = ctx.selectedApps();
    std::array<std::array<bool, kNumVoltageEnvs>, kCores> trained{};
    ChipCampaignResult result;
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        const EnvCapabilities caps = fig13Caps(fig13VoltageEnvs()[e]);
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const AppProfile &app = *apps[a];
            const std::size_t coreIdx = (chip + a) % kCores;
            CoreSystemModel &core = ctx.coreModel(chip, coreIdx);
            core.setAppType(app.isFp);

            std::unique_ptr<ExhaustiveOptimizer> exh;
            std::unique_ptr<FuzzyOptimizer> fuzzy;
            SubsystemOptimizer *sub = nullptr;
            if (campaign.scheme == AdaptScheme::FuzzyDyn) {
                t = nowSeconds();
                const CoreFuzzySystem &sys =
                    ctx.coreFuzzy(chip, coreIdx, caps);
                if (!trained[coreIdx][e]) {
                    ledger.trainS.push_back(nowSeconds() - t);
                    trained[coreIdx][e] = true;
                }
                fuzzy = std::make_unique<FuzzyOptimizer>(sys);
                sub = fuzzy.get();
            } else {
                exh = std::make_unique<ExhaustiveOptimizer>(
                    caps, ctx.config().constraints);
                sub = exh.get();
            }
            DynamicController ctl(*sub, caps, ctx.config().constraints,
                                  ctx.config().recovery);

            const AppCharacterization &chr =
                ctx.characterizations().get(app);
            for (std::size_t p = 0; p < chr.phases.size(); ++p) {
                t = nowSeconds();
                const PhaseAdaptation ad =
                    ctl.adaptPhase(core, p, chr.phases[p].chr, kThC);
                ledger.invokeS.push_back(nowSeconds() - t);
                if (!ad.reusedSaved)
                    ++result.outcomes[e][static_cast<std::size_t>(
                        ad.outcome)];
            }
        }
    }
    ledger.taskS = nowSeconds() - task0;
    return result;
}

struct ChipOutcome
{
    ChipCampaignResult result;
    bool ok = false;
};

/** The runMonolithic loop over chips [0, n) with @p unit per chip. */
template <typename Unit>
CampaignRun
runBlocks(ExperimentContext &ctx, std::size_t n, Unit &&unit)
{
    CampaignRun run;
    run.chips.reserve(n);
    const double cpu0 = cpuSeconds();
    const double t0 = nowSeconds();
    for (std::size_t cursor = 0; cursor < n; cursor += kBlock) {
        const std::size_t end = std::min(cursor + kBlock, n);
        const auto outcomes = globalPool().parallelMap(
            end - cursor, [&](std::size_t i) {
                ChipOutcome o;
                try {
                    o.result = unit(cursor + i);
                    o.ok = o.result.invocations() > 0;
                } catch (const std::exception &) {
                    o.ok = false;
                }
                return o;
            });
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            run.acc.addChip(cursor + i, outcomes[i].result);
            run.chips.push_back(outcomes[i].result);
            if (!outcomes[i].ok)
                ++run.failed;
        }
        for (std::size_t id = cursor; id < end; ++id)
            ctx.evictChip(id);
    }
    run.wallS = nowSeconds() - t0;
    run.cpuS = cpuSeconds() - cpu0;
    return run;
}

} // namespace

ExperimentConfig
makeConfig(std::uint64_t seed, int chips)
{
    ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.chips = chips;
    for (const AppProfile &app : specSuite())
        cfg.apps.push_back(app.name);
    return cfg;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::unique_ptr<ExperimentContext>
setUp(const ExperimentConfig &cfg, std::vector<double> *appSeconds)
{
    auto ctx = std::make_unique<ExperimentContext>(cfg);
    const auto apps = ctx->selectedApps();
    std::vector<double> secs(apps.size(), 0.0);
    globalPool().parallelFor(0, apps.size(), 1, [&](std::size_t i) {
        const double t0 = nowSeconds();
        ctx->characterizations().get(*apps[i]);
        secs[i] = nowSeconds() - t0;
    });
    if (appSeconds)
        *appSeconds = std::move(secs);
    return ctx;
}

CampaignRun
runCampaign(ExperimentContext &ctx, const CampaignConfig &campaign,
            std::size_t chips)
{
    return runBlocks(ctx, chips, [&](std::size_t chip) {
        return runCampaignChip(ctx, campaign, chip);
    });
}

CampaignRun
runTracedCampaign(ExperimentContext &ctx, const CampaignConfig &campaign,
                  std::size_t chips)
{
    // One ledger slot per chip: each task writes only its own.
    std::vector<ChipLedger> ledgers(chips);
    CampaignRun run = runBlocks(ctx, chips, [&](std::size_t chip) {
        return tracedChip(ctx, campaign, chip, ledgers[chip]);
    });
    run.ledgers = std::move(ledgers);
    return run;
}

std::uint64_t
expectedInvocations(ExperimentContext &ctx)
{
    std::uint64_t phases = 0;
    for (const AppProfile *app : ctx.selectedApps())
        phases += ctx.characterizations().get(*app).phases.size();
    return phases * kNumVoltageEnvs;
}

double
goodShareMin(const CampaignAccumulator &acc)
{
    double worst = 1.0;
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        const std::uint64_t total = acc.envInvocations(e);
        if (total == 0)
            return 0.0;
        const std::uint64_t good =
            acc.outcomeCount(e, RetuneOutcome::NoChange) +
            acc.outcomeCount(e, RetuneOutcome::LowFreq);
        worst = std::min(worst, static_cast<double>(good) /
                                    static_cast<double>(total));
    }
    return worst;
}

} // namespace perfbench
