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
 * (ExperimentContext::adaptApps) per chip, the same unit the `eval_cli
 * fig13` campaign and the fig13_micro golden run.
 */

#include "paper.hh"

namespace eval {

void
fig13Outcomes(ExperimentContext &ctx)
{
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

    for (const Technique &tech : techniques) {
        for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
            EnvCapabilities caps = fig13Caps(fig13VoltageEnvs()[e]);
            caps.fuReplication = tech.fu;
            caps.queueResize = tech.queue;

            // One task per chip (each drives its own chip's models);
            // per-chip tallies merge serially in chip order.
            const OutcomeTally cell =
                ctx.adaptPopulation(caps, AdaptScheme::FuzzyDyn);
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
        }
    }
    table.print();
}

} // namespace eval
