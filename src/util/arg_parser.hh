/**
 * @file
 * Minimal command-line argument parser for eval_cli:
 * `--key value`, `--key=value`, and boolean `--flag` options, plus
 * positional arguments.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eval {

/** Parsed command line. */
class ArgParser
{
  public:
    /** Parse argv[1..); fatal on malformed options. */
    ArgParser(int argc, const char *const *argv);

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::int64_t getInt(const std::string &key,
                        std::int64_t fallback) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    /** Keys that were provided but never queried (typo detection). */
    std::vector<std::string> unusedKeys() const;

  private:
    std::map<std::string, std::string> options_;
    mutable std::map<std::string, bool> queried_;
    std::vector<std::string> positional_;
};

} // namespace eval

