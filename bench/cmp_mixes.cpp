/**
 * @file
 * Chip-level study (our extension of Sec 5's CMP setup): four-app
 * multiprogrammed mixes with per-core adaptation coupled through the
 * shared heat sink.  Shows the TH_MAX constraint in action: hot
 * integer mixes trigger global throttling that memory-bound mixes
 * never see.
 */

#include "paper.hh"
#include "cmp/cmp_system.hh"

namespace eval {

void
cmpMixes(ExperimentContext &ctx)
{
    const std::vector<std::pair<std::string, WorkloadMix>> mixes = {
        {"int-heavy", intHeavyMix()},
        {"fp-heavy", fpHeavyMix()},
        {"mixed", mixedMix()},
        {"mem-bound", memBoundMix()},
    };
    std::vector<const AppProfile *> apps;
    for (const auto &mix : mixes)
        apps.insert(apps.end(), mix.second.begin(), mix.second.end());
    ctx.warmCharacterizations(apps);

    const std::vector<std::pair<EnvironmentKind, AdaptScheme>> setups = {
        {EnvironmentKind::Baseline, AdaptScheme::Static},
        {EnvironmentKind::TS_ASV, AdaptScheme::ExhDyn},
        {EnvironmentKind::TS_ASV_Q_FU, AdaptScheme::FuzzyDyn},
    };

    TablePrinter table("CMP mixes: throughput / chip power / heat sink");
    table.header({"mix", "environment", "throughputRel", "chip W",
                  "TH (C)", "throttle steps"});

    for (const auto &[mixName, mix] : mixes) {
        for (const auto &[env, scheme] : setups) {
            // One task per chip; each CmpSystem drives only its own
            // chip's core models.  Accumulate serially in chip order
            // so the stats match a serial run bit for bit.
            const auto perChip = globalPool().parallelMap(
                static_cast<std::size_t>(ctx.config().chips),
                [&ctx, &mix, env = env, scheme = scheme]
                (std::size_t chip) {
                    CmpSystem cmp(ctx, chip);
                    return cmp.runMix(mix, env, scheme);
                });
            RunningStats tput, power, th, throttle;
            for (const CmpRunResult &res : perChip) {
                tput.add(res.throughputRel);
                power.add(res.chipPowerW);
                th.add(res.heatsinkC);
                throttle.add(res.throttleSteps);
            }
            table.row({mixName,
                       std::string(environmentName(env)) + "/" +
                           adaptSchemeName(scheme),
                       formatDouble(tput.mean(), 3),
                       formatDouble(power.mean(), 1),
                       formatDouble(th.mean(), 1),
                       formatDouble(throttle.mean(), 1)});
        }
    }
    table.print();
    std::printf("\nTH_MAX = %.0f C; the heat sink couples the four "
                "per-core controllers (Sec 5's CMP).\n",
                ctx.config().constraints.thMaxC);
}

} // namespace eval
