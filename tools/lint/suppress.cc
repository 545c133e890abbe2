#include "suppress.hh"

#include <algorithm>
#include <regex>
#include <sstream>

#include "lint.hh"

namespace eval::lint {

bool
inlineUnsuppressible(const std::string &rule)
{
    return startsWith(rule, "lint-") || startsWith(rule, "lay-");
}

namespace {

/** The line a marker/suppression comment covers: its own line for a
 *  trailing comment, else the next code line (bounded so a
 *  suppression cannot drift far from its target). */
int
coveredLineFor(const Scan &scan, int line)
{
    if (!lineIsBlankCode(scan, line))
        return line;
    const int limit =
        std::min(line + 10, static_cast<int>(scan.lineStart.size()));
    for (int l = line + 1; l <= limit; ++l)
        if (!lineIsBlankCode(scan, l))
            return l;
    return line;
}

const std::regex allowRe(R"(eval-lint:\s*allow\(([^)]*)\)(.*))");

// File-scope markers share the audited form: marker word, then a
// justification.  Built from pieces so this file's own comments
// cannot accidentally contain an active marker.
const std::regex markerRe(R"(eval-lint:\s*(hot-path|counters-only)\b(.*))");

} // namespace

std::vector<Suppression>
parseSuppressions(const Scan &scan, const std::string &relPath,
                  std::vector<Diagnostic> &diags, FileMarkers &markers)
{
    std::vector<Suppression> supps;
    for (const auto &[line, text] : scan.lineComments) {
        if (text.find("eval-lint") == std::string::npos)
            continue;
        std::smatch m;
        if (std::regex_search(text, m, markerRe)) {
            const std::string which = m[1].str();
            if (trimmed(m[2].str()).empty())
                diags.push_back({relPath, line, "lint-bad-suppression",
                                 "file marker '" + which + "' has no "
                                 "justification text; every marker must "
                                 "say why it applies"});
            if (which == "hot-path")
                markers.hotPath = true;
            else
                markers.countersOnly = true;
            continue;
        }
        if (!std::regex_search(text, m, allowRe)) {
            diags.push_back({relPath, line, "lint-bad-suppression",
                             "malformed eval-lint comment; expected "
                             "'eval-lint: allow(<rule>) <justification>'"});
            continue;
        }
        Suppression s;
        s.line = line;
        s.coveredLine = coveredLineFor(scan, line);
        std::stringstream ruleList(m[1].str());
        std::string rule;
        bool ok = true;
        while (std::getline(ruleList, rule, ',')) {
            rule = trimmed(rule);
            if (rule.empty())
                continue;
            if (!isKnownRule(rule) || inlineUnsuppressible(rule)) {
                diags.push_back({relPath, line, "lint-bad-suppression",
                                 "suppression names unknown or "
                                 "non-suppressible rule '" + rule + "'"});
                ok = false;
                continue;
            }
            s.rules.push_back(rule);
        }
        if (s.rules.empty() && ok) {
            diags.push_back({relPath, line, "lint-bad-suppression",
                             "suppression lists no rules"});
            ok = false;
        }
        if (trimmed(m[2].str()).empty()) {
            diags.push_back({relPath, line, "lint-bad-suppression",
                             "suppression has no justification text; "
                             "every allowance must say why it is safe"});
            ok = false;
        }
        if (ok)
            supps.push_back(std::move(s));
    }
    return supps;
}

void
applySuppressions(std::vector<Diagnostic> &diags,
                  std::vector<Suppression> &supps,
                  const std::string &relPath)
{
    std::vector<Diagnostic> kept;
    for (auto &d : diags) {
        if (inlineUnsuppressible(d.rule)) {
            kept.push_back(std::move(d));
            continue;
        }
        bool suppressed = false;
        for (auto &s : supps) {
            const bool ruleMatch =
                std::find(s.rules.begin(), s.rules.end(), d.rule) !=
                s.rules.end();
            if (ruleMatch && s.coveredLine == d.line) {
                s.used = true;
                suppressed = true;
                break;
            }
        }
        if (!suppressed)
            kept.push_back(std::move(d));
    }
    for (const auto &s : supps)
        if (!s.used)
            kept.push_back({relPath, s.line, "lint-unused-suppression",
                            "suppression matched no finding; remove it "
                            "so stale allowances cannot accumulate"});
    diags = std::move(kept);
}

} // namespace eval::lint
