#include "valid/differential.hh"

#include <sstream>

#include "exec/thread_pool.hh"
#include "valid/json_value.hh"

namespace eval {

namespace {

/** First few line-level differences between two serialized files. */
std::string
firstDiffs(const GoldenFile &ref, const GoldenFile &run)
{
    const std::vector<MetricDiff> diffs = compareGolden(ref, run);
    std::ostringstream out;
    std::size_t shown = 0;
    for (const MetricDiff &d : diffs) {
        if (shown++ == 5) {
            out << "; ... " << (diffs.size() - 5) << " more";
            break;
        }
        if (shown > 1)
            out << "; ";
        out << d.metric << " " << formatExactDouble(d.expected)
            << " vs " << formatExactDouble(d.actual);
    }
    if (diffs.empty())
        out << "metric values equal but serialization differs";
    return out.str();
}

/** Restores the pool size even on exceptions. */
class ThreadsGuard
{
  public:
    ThreadsGuard() : threads_(globalThreads()) {}
    ~ThreadsGuard() { setGlobalThreads(threads_); }

  private:
    std::size_t threads_;
};

} // namespace

bool
DifferentialReport::allIdentical() const
{
    for (const DifferentialCheck &c : checks) {
        if (!c.identical)
            return false;
    }
    return !checks.empty();
}

std::string
DifferentialReport::summary() const
{
    std::ostringstream out;
    out << "differential '" << experiment << "':\n";
    for (const DifferentialCheck &c : checks) {
        out << "  " << c.label << ": "
            << (c.identical ? "bit-identical" : "DIFFERS");
        if (!c.identical && !c.detail.empty())
            out << " (" << c.detail << ")";
        out << "\n";
    }
    return out.str();
}

DifferentialReport
runDifferential(const std::string &experiment,
                const std::vector<std::size_t> &threadCounts,
                const ExperimentTweaks &tweaks)
{
    DifferentialReport report;
    report.experiment = experiment;

    ThreadsGuard guard;

    setGlobalThreads(1);
    const GoldenFile reference =
        runValidationExperiment(experiment, tweaks);

    const auto check = [&](const std::string &label) {
        const GoldenFile run = runValidationExperiment(experiment, tweaks);
        DifferentialCheck c;
        c.label = label;
        c.identical = compareBitIdentical(reference, run);
        if (!c.identical)
            c.detail = firstDiffs(reference, run);
        report.checks.push_back(std::move(c));
    };

    for (std::size_t t : threadCounts) {
        setGlobalThreads(t);
        check("threads=" + std::to_string(t));
    }
    return report;
}

} // namespace eval
