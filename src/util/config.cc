#include "util/config.hh"

#include <cstdlib>

namespace eval {

std::int64_t
envInt(const char *name, std::int64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const long long parsed = std::strtoll(v, &end, 10);
    return (end && *end == '\0') ? parsed : fallback;
}

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    return (end && *end == '\0') ? parsed : fallback;
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return (v && *v) ? std::string(v) : fallback;
}

bool
envHas(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v;
}

bool
envBool(const char *name, bool fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    const std::string s(v);
    return s == "1" || s == "true" || s == "yes" || s == "on";
}

std::vector<std::string>
splitCsvList(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    auto flush = [&out, &cur]() {
        std::size_t b = cur.find_first_not_of(" \t");
        std::size_t e = cur.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.push_back(cur.substr(b, e - b + 1));
        cur.clear();
    };
    for (char c : s) {
        if (c == ',')
            flush();
        else
            cur.push_back(c);
    }
    flush();
    return out;
}

} // namespace eval
