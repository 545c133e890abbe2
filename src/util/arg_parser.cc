#include "util/arg_parser.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace eval {

ArgParser::ArgParser(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg(argv[i]);
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        if (arg.empty())
            EVAL_FATAL("empty option name");

        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            options_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            options_[arg] = argv[++i];
        } else {
            options_[arg] = "true";   // bare flag
        }
    }
}

bool
ArgParser::has(const std::string &key) const
{
    queried_[key] = true;
    return options_.count(key) > 0;
}

std::string
ArgParser::getString(const std::string &key,
                     const std::string &fallback) const
{
    queried_[key] = true;
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
}

std::int64_t
ArgParser::getInt(const std::string &key, std::int64_t fallback) const
{
    queried_[key] = true;
    const auto it = options_.find(key);
    if (it == options_.end())
        return fallback;
    char *end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (!end || *end != '\0')
        EVAL_FATAL("option --", key, " expects an integer, got '",
                   it->second, "'");
    return v;
}

bool
ArgParser::getBool(const std::string &key, bool fallback) const
{
    queried_[key] = true;
    const auto it = options_.find(key);
    if (it == options_.end())
        return fallback;
    return it->second == "true" || it->second == "1" ||
           it->second == "yes" || it->second == "on";
}

std::vector<std::string>
ArgParser::unusedKeys() const
{
    std::vector<std::string> unused;
    for (const auto &[key, value] : options_) {
        (void)value;
        if (!queried_.count(key))
            unused.push_back(key);
    }
    return unused;
}

} // namespace eval
