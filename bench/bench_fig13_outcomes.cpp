/**
 * @file
 * Figure 13: outcome mix of the fuzzy controller system — for each
 * controller invocation the sensors either confirm the configuration
 * (NoChange), find head-room (LowFreq), or catch a violation (Error /
 * Temp / Power) that retuning corrects.
 *
 * Organization follows the paper: technique sets {No opt, FU opt,
 * Queue opt, FU+Queue opt} x voltage environments {A: TS, B: TS+ABB,
 * C: TS+ASV, D: TS+ABB+ASV}.  Every cell runs the Fig 13 unit
 * (ExperimentContext::adaptApps) per chip, the same unit the sharded
 * campaign and the fig13_micro golden run.
 */

#include "bench_common.hh"

using namespace eval;

int
main()
{
    BenchReporter reporter("fig13_outcomes");
    ExperimentContext ctx(benchConfig(10));
    const auto apps = ctx.selectedApps();
    const auto chips = static_cast<std::size_t>(ctx.config().chips);

    struct Technique
    {
        const char *name;
        bool fu;
        bool queue;
    };
    const Technique techniques[] = {{"No opt", false, false},
                                    {"FU opt", true, false},
                                    {"Queue opt", false, true},
                                    {"FU+Queue opt", true, true}};
    // Row labels, in fig13VoltageEnvs() order.
    const char *const envNames[kNumVoltageEnvs] = {
        "A:TS", "B:TS+ABB", "C:TS+ASV", "D:TS+ABB+ASV"};

    TablePrinter table("Figure 13: fuzzy controller outcomes (%)");
    table.header({"techniques", "environment", "NoChange", "LowFreq",
                  "Error", "Temp", "Power", "invocations"});

    std::uint64_t totalInvocations = 0, totalNoChange = 0;
    // Per-voltage-environment tallies (across all technique sets) for
    // the footer metrics: the NoChange+LowFreq share per environment
    // is the shape the golden paper-anchor test pins.
    std::array<OutcomeTally, kNumVoltageEnvs> perEnv{};

    // Warm the per-app characterization cache before the chip fan-out
    // starts: the first cell's chips would otherwise all serialize on
    // the cache's call_once.  Distinct apps characterize in parallel.
    globalPool().parallelFor(std::size_t{0}, apps.size(), 1,
                             [&ctx, &apps](std::size_t a) {
                                 ctx.characterizations().get(*apps[a]);
                             });

    for (const Technique &tech : techniques) {
        for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
            EnvCapabilities caps = fig13Caps(fig13VoltageEnvs()[e]);
            caps.fuReplication = tech.fu;
            caps.queueResize = tech.queue;

            // One task per chip (each drives its own chip's models);
            // per-chip tallies merge serially in chip order.
            const auto perChip = globalPool().parallelMap(
                chips, [&ctx, &caps](std::size_t chip) {
                    return ctx.adaptApps(chip, caps,
                                         AdaptScheme::FuzzyDyn);
                });
            OutcomeTally cell{};
            for (const OutcomeTally &local : perChip)
                for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                    cell[o] += local[o];
            const std::uint64_t total = invocationCount(cell);

            std::vector<std::string> row{tech.name, envNames[e]};
            for (std::uint64_t n : cell) {
                const double pct =
                    total ? 100.0 * static_cast<double>(n) /
                                static_cast<double>(total)
                          : 0.0;
                row.push_back(formatDouble(pct, 1));
            }
            row.push_back(std::to_string(total));
            table.row(row);
            totalInvocations += total;
            totalNoChange +=
                cell[static_cast<std::size_t>(RetuneOutcome::NoChange)];
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                perEnv[e][o] += cell[o];
        }
    }
    table.print();
    reporter.metric("invocations", static_cast<double>(totalInvocations));
    reporter.metric("no_change_share",
                    totalInvocations
                        ? static_cast<double>(totalNoChange) /
                              static_cast<double>(totalInvocations)
                        : 0.0);
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        // "a_ts" -> "env_a", "d_ts_abb_asv" -> "env_d".
        const std::string key =
            std::string("env_") + fig13VoltageEnvs()[e].tag[0];
        const OutcomeTally &env = perEnv[e];
        const double total = static_cast<double>(invocationCount(env));
        const double good = static_cast<double>(
            env[static_cast<std::size_t>(RetuneOutcome::NoChange)] +
            env[static_cast<std::size_t>(RetuneOutcome::LowFreq)]);
        const double error = static_cast<double>(
            env[static_cast<std::size_t>(RetuneOutcome::Error)]);
        reporter.metric(key + "_good_share", total > 0.0 ? good / total : 0.0);
        reporter.metric(key + "_error_share",
                        total > 0.0 ? error / total : 0.0);
    }
    return 0;
}
