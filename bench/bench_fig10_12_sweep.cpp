/**
 * @file
 * Figures 10-12: processor frequency (f / f_NoVar), performance
 * (Perf / Perf_NoVar) and power per processor (core + L1 + L2, plus
 * the checker in TS environments) for each environment of Table 1
 * under Static / Fuzzy-Dyn / Exh-Dyn adaptation.  All three figures
 * come from one ExperimentContext::sweep, the loop the sweep_micro
 * and paper_headline goldens pin.
 *
 * Paper shape:
 *  - Fig 10: Baseline ~0.78; TS adds ~12%; TS+ASV reaches ~0.97
 *    static and >1 dynamic; ABB adds little; Q+FU push the dynamic
 *    schemes well past NoVar; Fuzzy-Dyn ~ Exh-Dyn everywhere.
 *  - Fig 11: performance follows the frequency trends with smaller
 *    magnitudes (memory time does not scale with f); the preferred
 *    scheme gains ~40% over Baseline.
 *  - Fig 12: NoVar ~25W against a 30W cap, Baseline ~17W (it runs
 *    slower), power rising as mitigation techniques are added, with
 *    the preferred dynamic scheme using essentially the whole budget.
 */

#include "bench_common.hh"

using namespace eval;

namespace {

/** The six managed environment groups of Figures 10-12. */
constexpr EnvironmentKind kEnvs[] = {
    EnvironmentKind::TS,          EnvironmentKind::TS_ASV,
    EnvironmentKind::TS_ASV_ABB,  EnvironmentKind::TS_ASV_Q,
    EnvironmentKind::TS_ASV_Q_FU, EnvironmentKind::ALL};

constexpr AdaptScheme kSchemes[] = {
    AdaptScheme::Static, AdaptScheme::FuzzyDyn, AdaptScheme::ExhDyn};

/** The sweep's cells: Baseline, NoVar, then every (env, scheme). */
std::vector<SweepKey>
figureKeys()
{
    std::vector<SweepKey> keys = {
        {EnvironmentKind::Baseline, AdaptScheme::Static},
        {EnvironmentKind::NoVar, AdaptScheme::Static},
    };
    for (EnvironmentKind env : kEnvs)
        for (AdaptScheme scheme : kSchemes)
            keys.push_back({env, scheme});
    return keys;
}

/** Result of @p env under @p scheme in a figureKeys() sweep. */
const SweepCell &
managedCell(const std::vector<SweepCell> &cells, EnvironmentKind env,
            AdaptScheme scheme)
{
    const std::size_t numSchemes = std::size(kSchemes);
    std::size_t e = 0;
    while (kEnvs[e] != env)
        ++e;
    std::size_t s = 0;
    while (kSchemes[s] != scheme)
        ++s;
    return cells[2 + e * numSchemes + s];
}

/** Print one Figure 10/11/12 table for the chosen metric. */
void
printFigure(const std::vector<SweepCell> &cells, const char *title,
            const char *metricName, double SweepCell::*metric,
            int precision)
{
    TablePrinter table(title);
    table.header({"environment", "Static", "Fuzzy-Dyn", "Exh-Dyn"});
    for (EnvironmentKind env : kEnvs) {
        std::vector<std::string> row{environmentName(env)};
        for (AdaptScheme scheme : kSchemes)
            row.push_back(formatDouble(
                managedCell(cells, env, scheme).*metric, precision));
        table.row(row);
    }
    table.row({"Baseline (ref)", formatDouble(cells[0].*metric, precision),
               "", ""});
    table.row({"NoVar (ref)", formatDouble(cells[1].*metric, precision),
               "", ""});
    table.print();
    std::printf("samples per cell: %llu (%s)\n\n",
                static_cast<unsigned long long>(cells[0].runs),
                metricName);
}

} // namespace

int
main()
{
    BenchReporter reporter("fig10_12_sweep");
    ExperimentContext ctx(benchConfig(16));
    const std::vector<SweepCell> cells = ctx.sweep(figureKeys());
    const SweepCell &baseline = cells[0];
    const SweepCell &novar = cells[1];
    const SweepCell &preferred = managedCell(
        cells, EnvironmentKind::TS_ASV_Q_FU, AdaptScheme::FuzzyDyn);

    printFigure(cells, "Figure 10: relative frequency (f / f_NoVar)",
                "freqRel", &SweepCell::freqRel, 3);
    std::printf("headline: Baseline fR = %.3f; preferred "
                "(TS+ASV+Q+FU, Fuzzy-Dyn) fR = %.3f "
                "(+%.0f%% over Baseline)\n",
                baseline.freqRel, preferred.freqRel,
                100.0 * (preferred.freqRel / baseline.freqRel - 1.0));

    printFigure(cells,
                "Figure 11: relative performance (Perf / Perf_NoVar)",
                "perfRel", &SweepCell::perfRel, 3);
    std::printf("headline: Baseline PerfR = %.3f; preferred "
                "(TS+ASV+Q+FU, Fuzzy-Dyn) PerfR = %.3f "
                "(+%.0f%% over Baseline)\n",
                baseline.perfRel, preferred.perfRel,
                100.0 * (preferred.perfRel / baseline.perfRel - 1.0));

    printFigure(cells, "Figure 12: power per processor (W)", "powerW",
                &SweepCell::powerW, 1);
    std::printf("headline: NoVar %.1f W, Baseline %.1f W, preferred "
                "(Fuzzy-Dyn) %.1f W against PMAX = %.0f W\n",
                novar.powerW, baseline.powerW, preferred.powerW,
                ctx.config().constraints.pMaxW);

    reporter.metric("baseline_freq_rel", baseline.freqRel);
    reporter.metric("preferred_freq_rel", preferred.freqRel);
    reporter.metric("chips", ctx.config().chips);
    reporter.metric("baseline_perf_rel", baseline.perfRel);
    reporter.metric("preferred_perf_rel", preferred.perfRel);
    reporter.metric("baseline_power_w", baseline.powerW);
    reporter.metric("preferred_power_w", preferred.powerW);
    reporter.metric("pmax_w", ctx.config().constraints.pMaxW);
    return 0;
}
