#include "stats/stat_registry.hh"

// eval-lint: counters-only instruments are monotone relaxed counters read
// only at snapshot/dump time, off the model path.

#include <cstdio>
#include <sstream>
#include <vector>

#include "util/logging.hh"

namespace eval {

namespace {

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

Counter &
StatRegistry::counter(const std::string &name)
{
    EVAL_ASSERT(!name.empty(), "stat name must not be empty");
    std::string clash;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = stats_.find(name);
        if (it != stats_.end())
            return *it->second;

        // A dotted name is a tree path: a leaf cannot double as a group.
        const std::string prefix = name + ".";
        for (const auto &[other, unused] : stats_) {
            (void)unused;
            if (other.compare(0, prefix.size(), prefix) == 0 ||
                name.compare(0, other.size() + 1, other + ".") == 0) {
                clash = other;
                break;
            }
        }
        if (clash.empty())
            return *stats_.emplace(name, std::make_unique<Counter>())
                        .first->second;
    }
    // Fail with the lock released: the exit flush dumps this registry.
    EVAL_FATAL("stat '", name, "' conflicts with the hierarchy of "
               "existing stat '", clash, "'");
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
    for (auto &[name, counter] : stats_) {
        (void)name;
        counter->reset();
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

    for (const auto &[name, counter] : stats_) {
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

        os << "\"" << leaf << "\": {\"type\": \"counter\", \"value\": "
           << counter->value() << "}";
    }
    while (!open.empty()) {
        open.pop_back();
        indent(open.size());
        os << "}";
    }
    os << "\n}\n";
    return os.str();
}

bool
StatRegistry::writeJson(const std::string &path) const
{
    const std::string text = json();
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

} // namespace eval
