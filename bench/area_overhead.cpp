/**
 * @file
 * Figure 7(d): itemized area overhead of the EVAL system.  The paper's
 * preferred configuration (no ABB) totals 10.6% of processor area.
 */

#include "paper.hh"

namespace eval {

void
areaOverhead(ExperimentContext &)
{
    for (const bool withAbb : {false, true}) {
        AreaModelConfig cfg;
        cfg.includeAbb = withAbb;
        TablePrinter table(
            withAbb ? "Figure 7(d) area overhead (with ABB)"
                    : "Figure 7(d) area overhead (preferred, no ABB)");
        table.header({"source", "area (% processor)"});
        for (const AreaItem &item : areaOverhead(cfg))
            table.row({item.source, formatDouble(item.areaPercent, 1)});
        table.print();
        std::printf("\n");
    }
}

} // namespace eval
