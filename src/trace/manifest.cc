#include "trace/manifest.hh"

#include <cstdio>
#include <mutex>

#include <sys/resource.h>

#ifndef EVAL_BUILD_GIT_SHA
#define EVAL_BUILD_GIT_SHA "unknown"
#endif
#ifndef EVAL_BUILD_TYPE
#define EVAL_BUILD_TYPE "unknown"
#endif
#ifndef EVAL_BUILD_COMPILER
#define EVAL_BUILD_COMPILER "unknown"
#endif
#ifndef EVAL_BUILD_FLAGS
#define EVAL_BUILD_FLAGS ""
#endif
#ifndef EVAL_BUILD_SANITIZER
#define EVAL_BUILD_SANITIZER "none"
#endif

namespace eval {

const char *buildGitSha() { return EVAL_BUILD_GIT_SHA; }
const char *buildType() { return EVAL_BUILD_TYPE; }
const char *buildCompiler() { return EVAL_BUILD_COMPILER; }
const char *buildFlags() { return EVAL_BUILD_FLAGS; }
const char *buildSanitizer() { return EVAL_BUILD_SANITIZER; }

long
peakRssKb()
{
    // Every campaign runs in this process, so its own high-water mark
    // is the run's.
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss; // Linux: KiB
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

struct ManifestState
{
    std::mutex m;
    std::string tool = "unknown";
    std::uint64_t seed = 0;
    std::size_t threads = 1;
    std::string config;
    std::vector<std::pair<std::string, double>> stages;
    std::vector<std::pair<std::string, std::string>> outputs;
};

ManifestState &
state()
{
    static ManifestState *s = new ManifestState; // usable during exit
    return *s;
}

void
jsonEscapeInto(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    jsonEscapeInto(out, s);
    out += "\"";
    return out;
}

} // namespace

RunManifest &
RunManifest::global()
{
    static RunManifest manifest;
    return manifest;
}

void
RunManifest::setTool(const std::string &name)
{
    std::lock_guard<std::mutex> lock(state().m);
    state().tool = name;
}

void
RunManifest::setSeed(std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(state().m);
    state().seed = seed;
}

void
RunManifest::setThreads(std::size_t threads)
{
    std::lock_guard<std::mutex> lock(state().m);
    state().threads = threads;
}

void
RunManifest::setConfig(const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(state().m);
    state().config = fingerprint;
}

void
RunManifest::addStage(const std::string &name, double wallS)
{
    std::lock_guard<std::mutex> lock(state().m);
    state().stages.emplace_back(name, wallS);
}

void
RunManifest::setOutput(const std::string &key, const std::string &path)
{
    std::lock_guard<std::mutex> lock(state().m);
    for (auto &kv : state().outputs) {
        if (kv.first == key) {
            kv.second = path;
            return;
        }
    }
    state().outputs.emplace_back(key, path);
}

std::string
RunManifest::json() const
{
    ManifestState &s = state();
    std::lock_guard<std::mutex> lock(s.m);
    char buf[64];

    std::string out = "{\n";
    out += "  \"schema_version\": 1,\n";
    out += "  \"tool\": " + quoted(s.tool) + ",\n";
    out += "  \"git_sha\": " + quoted(buildGitSha()) + ",\n";
    out += "  \"build\": {\"type\": " + quoted(buildType()) +
           ", \"compiler\": " + quoted(buildCompiler()) +
           ", \"flags\": " + quoted(buildFlags()) +
           ", \"sanitizer\": " + quoted(buildSanitizer()) + "},\n";
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(fnv1a(s.config)));
    out += "  \"run\": {\"seed\": " + std::to_string(s.seed) +
           ", \"threads\": " + std::to_string(s.threads) +
           ", \"config_hash\": " + quoted(buf) +
           ", \"config\": " + quoted(s.config) + "},\n";
    out += "  \"stages\": [";
    for (std::size_t i = 0; i < s.stages.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.6f", s.stages[i].second);
        out += (i ? ", {" : "{");
        out += "\"name\": " + quoted(s.stages[i].first) +
               ", \"wall_s\": " + buf + "}";
    }
    out += "],\n";
    out += "  \"outputs\": {";
    for (std::size_t i = 0; i < s.outputs.size(); ++i) {
        out += (i ? ", " : "");
        out += quoted(s.outputs[i].first) + ": " +
               quoted(s.outputs[i].second);
    }
    out += "},\n";
    out += "  \"peak_rss_kb\": " + std::to_string(peakRssKb()) + "\n";
    out += "}\n";
    return out;
}

bool
RunManifest::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = json();
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    const bool closed = std::fclose(f) == 0;
    return written == text.size() && closed;
}

void
RunManifest::reset()
{
    ManifestState &s = state();
    std::lock_guard<std::mutex> lock(s.m);
    s.tool = "unknown";
    s.seed = 0;
    s.threads = 1;
    s.config.clear();
    s.stages.clear();
    s.outputs.clear();
}

} // namespace eval
