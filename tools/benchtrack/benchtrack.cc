#include "benchtrack.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "valid/json_value.hh"

namespace eval {
namespace benchtrack {

namespace {

namespace fs = std::filesystem;

constexpr const char *kFooterTag = "BENCH_JSON ";

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

JsonValue
entryToJson(const Entry &e)
{
    JsonValue obj = JsonValue::object();
    obj.set("bench", e.bench);
    obj.set("wall_clock_s", e.wallClockS);
    obj.set("threads", e.threads);
    obj.set("peak_rss_kb", e.peakRssKb);
    JsonValue metrics = JsonValue::object();
    for (const auto &[key, value] : e.metrics)
        metrics.set(key, value);
    obj.set("metrics", metrics);
    if (!e.spanSelfMs.empty()) {
        JsonValue spans = JsonValue::object();
        for (const auto &[name, ms] : e.spanSelfMs)
            spans.set(name, ms);
        obj.set("span_self_ms", spans);
    }
    return obj;
}

/** The per-entry value set the comparison runs over: wall clock and
 *  peak RSS are folded in beside the bench's own metrics. */
std::map<std::string, double>
comparableMetrics(const Entry &e)
{
    std::map<std::string, double> out = e.metrics;
    out["wall_clock_s"] = e.wallClockS;
    if (e.peakRssKb > 0)
        out["peak_rss_kb"] = static_cast<double>(e.peakRssKb);
    return out;
}

std::string
formatValue(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/** Top spans by self-time growth, newest entry vs the mean of the
 *  prior window entries that carried span data (untraced runs don't
 *  dilute the baseline).  Spans that shrank are not blamed. */
std::vector<SpanBlame>
blameSpans(const std::vector<Entry> &history, std::size_t priorCount)
{
    const Entry &cur = history.back();

    std::map<std::string, double> baselineSum;
    std::size_t traced = 0;
    for (std::size_t i = history.size() - 1 - priorCount;
         i + 1 < history.size(); ++i) {
        if (history[i].spanSelfMs.empty())
            continue;
        ++traced;
        for (const auto &[name, ms] : history[i].spanSelfMs)
            baselineSum[name] += ms;
    }

    std::vector<SpanBlame> blames;
    std::map<std::string, double> names = cur.spanSelfMs;
    for (const auto &[name, sum] : baselineSum)
        names.emplace(name, 0.0);       // vanished spans still rank
    for (const auto &[name, unused] : names) {
        (void)unused;
        SpanBlame b;
        b.span = name;
        const auto it = cur.spanSelfMs.find(name);
        b.currentMs = it != cur.spanSelfMs.end() ? it->second : 0.0;
        const auto base = baselineSum.find(name);
        if (traced > 0 && base != baselineSum.end())
            b.baselineMs = base->second / static_cast<double>(traced);
        b.deltaMs = b.currentMs - b.baselineMs;
        if (b.deltaMs > 0.0)
            blames.push_back(std::move(b));
    }
    std::sort(blames.begin(), blames.end(),
              [](const SpanBlame &a, const SpanBlame &b) {
                  if (a.deltaMs > b.deltaMs)
                      return true;
                  if (a.deltaMs < b.deltaMs)
                      return false;
                  return a.span < b.span;
              });
    if (blames.size() > 3)
        blames.resize(3);
    return blames;
}

} // namespace

GateDir
gateDir(const std::string &metric)
{
    if (metric == "wall_clock_s")
        return GateDir::LowerBetter;
    if (metric == "throughput_chips_per_s")
        return GateDir::HigherBetter;
    return GateDir::None;
}

const char *
gateDirName(GateDir d)
{
    switch (d) {
      case GateDir::None:         return "none";
      case GateDir::LowerBetter:  return "lower_better";
      case GateDir::HigherBetter: return "higher_better";
    }
    return "?";
}

const char *
deltaName(Delta d)
{
    switch (d) {
      case Delta::New:         return "new";
      case Delta::Noise:       return "noise";
      case Delta::Improvement: return "improvement";
      case Delta::Regression:  return "regression";
    }
    return "?";
}

bool
parseEntry(const std::string &line, Entry &out)
{
    std::string body = line;
    const std::size_t tag = body.find(kFooterTag);
    if (tag != std::string::npos)
        body = body.substr(tag + std::strlen(kFooterTag));
    const std::size_t brace = body.find('{');
    if (brace == std::string::npos)
        return false;
    if (tag == std::string::npos && brace != 0)
        return false;                      // prose line, not JSONL

    JsonValue doc;
    try {
        doc = JsonValue::parse(
            std::string_view(body).substr(brace));
    } catch (const JsonParseError &) {
        return false;
    }
    if (doc.type() != JsonValue::Type::Object || !doc.has("bench") ||
        !doc.has("wall_clock_s")) {
        return false;
    }

    Entry e;
    try {
        e.bench = doc.at("bench").asString();
        e.wallClockS = doc.at("wall_clock_s").asDouble();
        if (doc.has("threads"))
            e.threads = doc.at("threads").asInt();
        if (doc.has("peak_rss_kb"))
            e.peakRssKb = doc.at("peak_rss_kb").asInt();
        if (doc.has("metrics")) {
            for (const auto &[key, value] :
                 doc.at("metrics").asObject()) {
                if (value.isNumber())
                    e.metrics[key] = value.asDouble();
            }
        }
        if (doc.has("span_self_ms")) {
            for (const auto &[name, ms] :
                 doc.at("span_self_ms").asObject()) {
                if (ms.isNumber())
                    e.spanSelfMs[name] = ms.asDouble();
            }
        }
    } catch (const std::runtime_error &) {
        return false;
    }
    out = std::move(e);
    return true;
}

std::vector<Entry>
parseEntries(const std::string &text)
{
    std::vector<Entry> entries;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        Entry e;
        if (parseEntry(line, e))
            entries.push_back(std::move(e));
    }
    return entries;
}

std::size_t
ingest(const std::vector<Entry> &entries, const std::string &historyDir)
{
    std::error_code ec;
    fs::create_directories(historyDir, ec);
    std::size_t appended = 0;
    for (const Entry &e : entries) {
        const std::string path =
            (fs::path(historyDir) / (e.bench + ".jsonl")).string();
        std::ofstream out(path, std::ios::app);
        if (!out)
            continue;
        out << entryToJson(e).dump() << "\n";
        ++appended;
    }
    return appended;
}

std::vector<Entry>
loadHistory(const std::string &path)
{
    return parseEntries(readFile(path));
}

Report
report(const std::string &historyDir, std::size_t window,
       double thresholdPct)
{
    Report rep;

    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(historyDir, ec)) {
        if (de.path().extension() == ".jsonl")
            files.push_back(de.path().string());
    }
    std::sort(files.begin(), files.end());

    for (const std::string &file : files) {
        const std::vector<Entry> history = loadHistory(file);
        if (history.empty())
            continue;
        const Entry &cur = history.back();
        const std::size_t priorCount =
            std::min(window, history.size() - 1);
        bool wallClockRegressed = false;

        for (const auto &[metric, value] : comparableMetrics(cur)) {
            MetricReport row;
            row.bench = cur.bench;
            row.metric = metric;
            row.current = value;
            row.dir = gateDir(metric);
            row.gated = row.dir != GateDir::None;

            // Baseline: mean over the last `window` prior entries
            // that have this metric at all.
            double sum = 0.0;
            std::size_t n = 0;
            for (std::size_t i = history.size() - 1 - priorCount;
                 i + 1 < history.size(); ++i) {
                const auto prior = comparableMetrics(history[i]);
                const auto it = prior.find(metric);
                if (it != prior.end()) {
                    sum += it->second;
                    ++n;
                }
            }
            row.window = n;

            if (n == 0) {
                row.verdict = Delta::New;
            } else {
                row.baseline = sum / static_cast<double>(n);
                if (std::abs(row.baseline) < 1e-12) {
                    row.deltaPct = 0.0;
                    row.verdict = std::abs(row.current) < 1e-12
                                      ? Delta::Noise
                                      : Delta::New;
                } else {
                    row.deltaPct = (row.current - row.baseline) /
                                   std::abs(row.baseline) * 100.0;
                    if (std::abs(row.deltaPct) < thresholdPct) {
                        row.verdict = Delta::Noise;
                    } else if (row.gated) {
                        // A move against the metric's direction is
                        // the regression.
                        const bool worse =
                            row.dir == GateDir::LowerBetter
                                ? row.deltaPct > 0.0
                                : row.deltaPct < 0.0;
                        row.verdict = worse ? Delta::Regression
                                            : Delta::Improvement;
                    } else {
                        // Informational: direction label only, never
                        // fails the gate (higher-is-better framing).
                        row.verdict = row.deltaPct > 0.0
                                          ? Delta::Improvement
                                          : Delta::Regression;
                    }
                }
            }
            if (row.gated && row.verdict == Delta::Regression) {
                ++rep.regressions;
                if (metric == "wall_clock_s")
                    wallClockRegressed = true;
            }
            rep.rows.push_back(std::move(row));
        }

        // The wall-clock gate tripped: name the spans whose self
        // time grew the most against the same comparison window.
        if (wallClockRegressed) {
            BenchBlame blame;
            blame.bench = cur.bench;
            blame.topSpans = blameSpans(history, priorCount);
            if (!blame.topSpans.empty())
                rep.blames.push_back(std::move(blame));
        }
    }
    return rep;
}

std::string
Report::toMarkdown(double thresholdPct) const
{
    std::string out = "# Bench regression report\n\n";
    out += "Noise threshold: " + formatValue(thresholdPct) +
           "% — gated metrics: `wall_clock_s` (lower is better), "
           "`throughput_chips_per_s` (higher is better). "
           "Gated regressions: " + std::to_string(regressions) + ".\n\n";
    out += "| bench | metric | current | baseline | delta | window | "
           "verdict |\n";
    out += "|---|---|---:|---:|---:|---:|---|\n";
    for (const MetricReport &r : rows) {
        out += "| " + r.bench + " | " + r.metric + " | " +
               formatValue(r.current) + " | ";
        out += r.verdict == Delta::New ? "-" : formatValue(r.baseline);
        out += " | ";
        out += r.verdict == Delta::New
                   ? std::string("-")
                   : formatValue(r.deltaPct) + "%";
        out += " | " + std::to_string(r.window) + " | ";
        out += deltaName(r.verdict);
        if (r.gated && r.verdict == Delta::Regression)
            out += " ❌";
        out += " |\n";
    }
    for (const BenchBlame &b : blames) {
        out += "\n## Blame: " + b.bench + "\n\n";
        out += "`wall_clock_s` regressed — top spans by self-time "
               "growth vs the window baseline:\n\n";
        for (const SpanBlame &s : b.topSpans) {
            out += "- `" + s.span + "` +" + formatValue(s.deltaMs) +
                   " ms (" + formatValue(s.baselineMs) + " → " +
                   formatValue(s.currentMs) + " ms)\n";
        }
    }
    return out;
}

std::string
Report::toJson(double thresholdPct) const
{
    JsonValue doc = JsonValue::object();
    doc.set("threshold_pct", thresholdPct);
    doc.set("regressions",
            static_cast<std::int64_t>(regressions));
    JsonValue arr = JsonValue::array();
    for (const MetricReport &r : rows) {
        JsonValue row = JsonValue::object();
        row.set("bench", r.bench);
        row.set("metric", r.metric);
        row.set("current", r.current);
        row.set("baseline", r.baseline);
        row.set("delta_pct", r.deltaPct);
        row.set("window", static_cast<std::int64_t>(r.window));
        row.set("verdict", deltaName(r.verdict));
        row.set("gated", r.gated);
        row.set("direction", gateDirName(r.dir));
        arr.push(std::move(row));
    }
    doc.set("rows", std::move(arr));
    JsonValue blameArr = JsonValue::array();
    for (const BenchBlame &b : blames) {
        JsonValue obj = JsonValue::object();
        obj.set("bench", b.bench);
        JsonValue spans = JsonValue::array();
        for (const SpanBlame &s : b.topSpans) {
            JsonValue span = JsonValue::object();
            span.set("span", s.span);
            span.set("current_ms", s.currentMs);
            span.set("baseline_ms", s.baselineMs);
            span.set("delta_ms", s.deltaMs);
            spans.push(std::move(span));
        }
        obj.set("spans", std::move(spans));
        blameArr.push(std::move(obj));
    }
    doc.set("blames", std::move(blameArr));
    return doc.dump(2) + "\n";
}

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: benchtrack ingest --history DIR FILE...\n"
        "       benchtrack report --history DIR [--window N]\n"
        "                         [--threshold PCT] [--markdown FILE]\n"
        "                         [--json FILE] [--gate]\n");
    return 2;
}

bool
writeFileOrStdout(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int
runBenchtrack(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const std::string cmd = args[0];

    std::string historyDir;
    std::string markdownOut;
    std::string jsonOut;
    std::vector<std::string> files;
    std::size_t window = 5;
    double thresholdPct = 10.0;
    bool gate = false;

    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&](const char *flag) -> const std::string & {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "benchtrack: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return args[++i];
        };
        if (a == "--history")
            historyDir = value("--history");
        else if (a == "--window")
            window = static_cast<std::size_t>(
                std::stoul(value("--window")));
        else if (a == "--threshold")
            thresholdPct = std::stod(value("--threshold"));
        else if (a == "--markdown")
            markdownOut = value("--markdown");
        else if (a == "--json")
            jsonOut = value("--json");
        else if (a == "--gate")
            gate = true;
        else if (!a.empty() && a[0] == '-')
            return usage();
        else
            files.push_back(a);
    }
    if (historyDir.empty())
        return usage();

    if (cmd == "ingest") {
        if (files.empty())
            return usage();
        std::vector<Entry> entries;
        for (const std::string &file : files) {
            const std::string text = readFile(file);
            if (text.empty()) {
                std::fprintf(stderr,
                             "benchtrack: cannot read '%s'\n",
                             file.c_str());
                return 2;
            }
            const auto parsed = parseEntries(text);
            entries.insert(entries.end(), parsed.begin(),
                           parsed.end());
        }
        const std::size_t n = ingest(entries, historyDir);
        std::printf("benchtrack: ingested %zu entr%s into %s\n", n,
                    n == 1 ? "y" : "ies", historyDir.c_str());
        return 0;
    }

    if (cmd == "report") {
        const Report rep = report(historyDir, window, thresholdPct);
        if (!markdownOut.empty() &&
            !writeFileOrStdout(markdownOut,
                               rep.toMarkdown(thresholdPct))) {
            std::fprintf(stderr, "benchtrack: cannot write '%s'\n",
                         markdownOut.c_str());
            return 2;
        }
        if (!jsonOut.empty() &&
            !writeFileOrStdout(jsonOut, rep.toJson(thresholdPct))) {
            std::fprintf(stderr, "benchtrack: cannot write '%s'\n",
                         jsonOut.c_str());
            return 2;
        }
        if (markdownOut.empty() && jsonOut.empty())
            std::fputs(rep.toMarkdown(thresholdPct).c_str(), stdout);
        std::printf("benchtrack: %zu metric%s, %zu gated "
                    "regression%s\n",
                    rep.rows.size(), rep.rows.size() == 1 ? "" : "s",
                    rep.regressions,
                    rep.regressions == 1 ? "" : "s");
        return gate && rep.regressions > 0 ? 1 : 0;
    }

    return usage();
}

} // namespace benchtrack
} // namespace eval
