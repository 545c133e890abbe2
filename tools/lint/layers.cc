#include "layers.hh"

#include <algorithm>
#include <functional>
#include <sstream>

#include "source_scan.hh"

namespace eval::lint {

namespace {

/** Strip a trailing `# comment` (outside quotes) and whitespace. */
std::string
stripComment(const std::string &line)
{
    bool inStr = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '"')
            inStr = !inStr;
        else if (line[i] == '#' && !inStr)
            return trimmed(line.substr(0, i));
    }
    return trimmed(line);
}

/** Parse the double-quoted strings in `text` (one array's items). */
std::vector<std::string>
quotedStrings(const std::string &text, bool &malformed)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        const char c = text[i];
        if (c == '"') {
            const std::size_t close = text.find('"', i + 1);
            if (close == std::string::npos) {
                malformed = true;
                return out;
            }
            out.push_back(text.substr(i + 1, close - i - 1));
            i = close + 1;
        } else if (c == ',' || c == ' ' || c == '\t') {
            ++i;
        } else {
            malformed = true;
            return out;
        }
    }
    return out;
}

} // namespace

void
checkLayerDag(const LayersManifest &manifest,
              std::vector<ManifestError> &errors)
{
    // DFS with three colors; on a back edge, reconstruct the module
    // chain for the error message.
    enum class Color { White, Grey, Black };
    std::map<std::string, Color> color;
    for (const auto &[name, mod] : manifest.modules)
        color[name] = Color::White;

    std::function<bool(const std::string &, std::vector<std::string> &)>
        visit = [&](const std::string &name,
                    std::vector<std::string> &chain) -> bool {
        color[name] = Color::Grey;
        chain.push_back(name);
        for (const auto &edge : manifest.modules.at(name).uses) {
            const auto cit = color.find(edge.to);
            if (cit == color.end())
                continue; // unknown target: reported separately
            if (cit->second == Color::Grey) {
                std::string cycle;
                auto at = std::find(chain.begin(), chain.end(), edge.to);
                for (; at != chain.end(); ++at)
                    cycle += *at + " -> ";
                cycle += edge.to;
                errors.push_back({edge.line, "`uses` edges form a cycle (" +
                                                 cycle + "); the layer graph "
                                                 "must be a DAG"});
                return true;
            }
            if (cit->second == Color::White && visit(edge.to, chain))
                return true;
        }
        chain.pop_back();
        color[name] = Color::Black;
        return false;
    };

    for (const auto &[name, mod] : manifest.modules) {
        if (color[name] != Color::White)
            continue;
        std::vector<std::string> chain;
        if (visit(name, chain))
            return; // one cycle report is actionable enough
    }
}

LayersManifest
parseLayers(const std::string &text, std::vector<ManifestError> &errors)
{
    LayersManifest manifest;
    manifest.loaded = true;
    ModuleContract *current = nullptr;

    // Array values may span lines: `key = [` ... `]`.
    std::string pendingKey;
    std::string pendingValue;
    int pendingLine = 0;

    auto commitArray = [&](const std::string &key, std::string value,
                           int atLine) {
        for (const char bracket : {'[', ']'})
            value.erase(std::remove(value.begin(), value.end(), bracket),
                        value.end());
        bool malformed = false;
        const std::vector<std::string> items =
            quotedStrings(trimmed(value), malformed);
        if (malformed)
            errors.push_back(
                {atLine, "malformed string array for '" + key + "'"});
        else if (!current)
            errors.push_back({atLine, "key '" + key + "' outside any table"});
        else if (key != "uses")
            errors.push_back({atLine, "unknown module key '" + key + "'"});
        else
            for (const auto &item : items)
                current->uses.push_back({item, atLine});
    };

    std::istringstream lines(text);
    std::string raw;
    int lineNo = 0;
    while (std::getline(lines, raw)) {
        ++lineNo;
        const std::string line = stripComment(raw);
        if (line.empty())
            continue;

        if (!pendingKey.empty()) {
            pendingValue += ' ' + line;
            if (line.find(']') != std::string::npos) {
                commitArray(pendingKey, pendingValue, pendingLine);
                pendingKey.clear();
            }
            continue;
        }

        if (line.front() == '[') {
            current = nullptr;
            static const std::string prefix = "[modules.";
            const std::string name =
                startsWith(line, prefix.c_str()) && line.back() == ']'
                    ? line.substr(prefix.size(),
                                  line.size() - prefix.size() - 1)
                    : "";
            if (name.empty() ||
                !std::all_of(name.begin(), name.end(), identChar)) {
                errors.push_back({lineNo, "unknown table '" + line + "'"});
                continue;
            }
            auto [it, fresh] = manifest.modules.try_emplace(name);
            if (!fresh)
                errors.push_back(
                    {lineNo, "duplicate table for module '" + name + "'"});
            it->second.line = lineNo;
            current = &it->second;
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            errors.push_back(
                {lineNo, "expected 'key = [...]' but got '" + line + "'"});
            continue;
        }
        const std::string key = trimmed(line.substr(0, eq));
        const std::string value = trimmed(line.substr(eq + 1));
        if (value.empty() || value.front() != '[') {
            errors.push_back(
                {lineNo, "value for '" + key + "' must be a string array"});
            continue;
        }
        if (value.find(']') != std::string::npos) {
            commitArray(key, value, lineNo);
        } else {
            pendingKey = key;
            pendingValue = value;
            pendingLine = lineNo;
        }
    }
    if (!pendingKey.empty())
        errors.push_back(
            {pendingLine, "unterminated array for '" + pendingKey + "'"});

    for (const auto &[name, mod] : manifest.modules)
        for (const auto &edge : mod.uses)
            if (!manifest.modules.count(edge.to))
                errors.push_back({edge.line, "module '" + name +
                                                 "' uses undeclared module '" +
                                                 edge.to + "'"});

    checkLayerDag(manifest, errors);
    return manifest;
}

} // namespace eval::lint
