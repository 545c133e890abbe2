#include "stats/stat_registry.hh"

// eval-lint: counters-only instruments are monotone relaxed counters and
// gauges read only at snapshot/dump time, off the model path.

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace eval {

const char *
statTypeName(StatType t)
{
    switch (t) {
      case StatType::Counter:   return "counter";
      case StatType::Gauge:     return "gauge";
      case StatType::Histogram: return "histogram";
    }
    return "?";
}

void
HistogramStat::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    hist_ = Histogram(lo_, hi_, nbins_);
    moments_.reset();
}

namespace {

/** JSON number: finite values via %.12g, otherwise null. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::vector<std::string>
splitDotted(const std::string &name)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= name.size(); ++i) {
        if (i == name.size() || name[i] == '.') {
            parts.push_back(name.substr(start, i - start));
            start = i + 1;
        }
    }
    return parts;
}

} // namespace

StatRegistry &
StatRegistry::global()
{
    // Leaked: exit-flush hooks (stats dump, status snapshot) read the
    // registry during process teardown, after function-local statics
    // are destroyed.
    static StatRegistry *registry = new StatRegistry;
    return *registry;
}

StatRegistry::Slot &
StatRegistry::slot(const std::string &name, StatType type, double lo,
                   double hi, std::size_t bins)
{
    EVAL_ASSERT(!name.empty(), "stat name must not be empty");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_.find(name);
    if (it != stats_.end()) {
        const StatType existing =
            static_cast<StatType>(it->second->index());
        if (existing != type) {
            EVAL_FATAL("stat '", name, "' already registered as ",
                       statTypeName(existing), ", requested as ",
                       statTypeName(type));
        }
        return *it->second;
    }

    // A dotted name is a tree path: a leaf cannot double as a group.
    const std::string prefix = name + ".";
    for (const auto &[other, unused] : stats_) {
        (void)unused;
        if (other.compare(0, prefix.size(), prefix) == 0 ||
            name.compare(0, other.size() + 1, other + ".") == 0) {
            EVAL_FATAL("stat '", name, "' conflicts with the hierarchy "
                       "of existing stat '", other, "'");
        }
    }

    std::unique_ptr<Slot> made;
    switch (type) {
      case StatType::Counter:
        made = std::make_unique<Slot>(std::in_place_type<Counter>);
        break;
      case StatType::Gauge:
        made = std::make_unique<Slot>(std::in_place_type<Gauge>);
        break;
      case StatType::Histogram:
        made = std::make_unique<Slot>(
            std::in_place_type<HistogramStat>, lo, hi, bins);
        break;
    }
    it = stats_.emplace(name, std::move(made)).first;
    return *it->second;
}

Counter &
StatRegistry::counter(const std::string &name)
{
    return std::get<Counter>(slot(name, StatType::Counter));
}

Gauge &
StatRegistry::gauge(const std::string &name)
{
    return std::get<Gauge>(slot(name, StatType::Gauge));
}

HistogramStat &
StatRegistry::histogram(const std::string &name, double lo, double hi,
                        std::size_t bins)
{
    return std::get<HistogramStat>(
        slot(name, StatType::Histogram, lo, hi, bins));
}

bool
StatRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.count(name) > 0;
}

std::size_t
StatRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.size();
}

void
StatRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, s] : stats_) {
        (void)name;
        std::visit([](auto &stat) { stat.reset(); }, *s);
    }
}

std::string
StatRegistry::json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{";
    std::vector<std::string> open;   // current group path
    bool firstEntry = true;

    const auto indent = [&os](std::size_t depth) {
        os << "\n";
        for (std::size_t i = 0; i < depth + 1; ++i)
            os << "  ";
    };

    for (const auto &[name, s] : stats_) {
        std::vector<std::string> parts = splitDotted(name);
        const std::string leaf = parts.back();
        parts.pop_back();

        std::size_t common = 0;
        while (common < open.size() && common < parts.size() &&
               open[common] == parts[common]) {
            ++common;
        }
        // Close groups below the common prefix.
        while (open.size() > common) {
            open.pop_back();
            indent(open.size());
            os << "}";
        }
        if (!firstEntry)
            os << ",";
        firstEntry = false;
        // Open the new groups.
        while (open.size() < parts.size()) {
            indent(open.size());
            os << "\"" << parts[open.size()] << "\": {";
            open.push_back(parts[open.size()]);
        }
        indent(open.size());

        os << "\"" << leaf << "\": ";
        std::visit(
            [&os](const auto &stat) {
                using T = std::decay_t<decltype(stat)>;
                if constexpr (std::is_same_v<T, Counter>) {
                    os << "{\"type\": \"counter\", \"value\": "
                       << stat.value() << "}";
                } else if constexpr (std::is_same_v<T, Gauge>) {
                    os << "{\"type\": \"gauge\", \"value\": "
                       << jsonNumber(stat.value()) << "}";
                } else {
                    os << "{\"type\": \"histogram\", \"count\": "
                       << stat.count()
                       << ", \"mean\": " << jsonNumber(stat.mean())
                       << ", \"stddev\": " << jsonNumber(stat.stddev())
                       << ", \"min\": " << jsonNumber(stat.min())
                       << ", \"max\": " << jsonNumber(stat.max())
                       << ", \"p50\": " << jsonNumber(stat.quantile(0.5))
                       << ", \"p90\": " << jsonNumber(stat.quantile(0.9))
                       << ", \"p95\": " << jsonNumber(stat.quantile(0.95))
                       << ", \"p99\": " << jsonNumber(stat.quantile(0.99))
                       << "}";
                }
            },
            *s);
    }
    while (!open.empty()) {
        open.pop_back();
        indent(open.size());
        os << "}";
    }
    os << "\n}\n";
    return os.str();
}

std::string
StatRegistry::csv() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CsvTable table({"name", "type", "count", "value", "mean", "min",
                    "max", "p50", "p90", "p95", "p99"});
    for (const auto &[name, s] : stats_) {
        std::visit(
            [&table, &name = name](const auto &stat) {
                using T = std::decay_t<decltype(stat)>;
                if constexpr (std::is_same_v<T, Counter>) {
                    table.row({name, "counter", "",
                               std::to_string(stat.value()), "", "", "",
                               "", "", "", ""});
                } else if constexpr (std::is_same_v<T, Gauge>) {
                    table.row({name, "gauge", "",
                               formatDouble(stat.value(), 6), "", "",
                               "", "", "", "", ""});
                } else {
                    table.row({name, "histogram",
                               std::to_string(stat.count()), "",
                               formatDouble(stat.mean(), 6),
                               formatDouble(stat.min(), 6),
                               formatDouble(stat.max(), 6),
                               formatDouble(stat.quantile(0.5), 6),
                               formatDouble(stat.quantile(0.9), 6),
                               formatDouble(stat.quantile(0.95), 6),
                               formatDouble(stat.quantile(0.99), 6)});
                }
            },
            *s);
    }
    return table.str();
}

namespace {

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open '", path, "' for writing");
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!ok)
        warn("short write to '", path, "'");
    return ok;
}

} // namespace

bool
StatRegistry::writeJson(const std::string &path) const
{
    return writeTextFile(path, json());
}

bool
StatRegistry::writeCsv(const std::string &path) const
{
    return writeTextFile(path, csv());
}

} // namespace eval
