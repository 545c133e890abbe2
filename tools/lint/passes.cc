#include "passes.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "lint.hh"

namespace eval::lint {

namespace {

/** src-relative spelling used by layers.toml ("src/core/eval.hh" ->
 *  "core/eval.hh"). */
std::string
srcRel(const std::string &relPath)
{
    return startsWith(relPath, "src/") ? relPath.substr(4) : relPath;
}

std::string
lastComponent(const std::string &type)
{
    const std::size_t pos = type.rfind("::");
    return pos == std::string::npos ? type : type.substr(pos + 2);
}

// ---------------------------------------------------------------------------
// Layering contract
// ---------------------------------------------------------------------------

void
passLayering(const ProjectIndex &index, const LayersManifest &manifest,
             const PassOptions &opts, std::vector<Diagnostic> &diags)
{
    if (!manifest.loaded)
        return;

    // (module, to) -> used; exception index -> used.
    std::set<std::pair<std::string, std::string>> usedEdges;
    std::vector<bool> usedExceptions(manifest.exceptions.size(), false);
    std::set<std::string> modulesSeen;

    for (const auto &file : index.files) {
        if (file.module.empty())
            continue;
        modulesSeen.insert(file.module);
        const auto modIt = manifest.modules.find(file.module);
        if (modIt == manifest.modules.end()) {
            diags.push_back(
                {file.relPath, 1, "lay-module",
                 "module '" + file.module + "' is not declared in " +
                     (opts.manifestRel.empty() ? "layers.toml"
                                               : opts.manifestRel) +
                     "; every src/ module needs a [modules." +
                     file.module + "] table"});
            continue;
        }
        const ModuleContract &contract = modIt->second;
        for (const auto &inc : file.includes) {
            if (inc.angled)
                continue;
            const std::size_t slash = inc.path.find('/');
            if (slash == std::string::npos)
                continue; // same-directory include
            const std::string target = inc.path.substr(0, slash);
            if (!manifest.modules.count(target))
                continue; // not a src/ module (external quoted include)
            if (target == file.module)
                continue;
            const bool declared = std::any_of(
                contract.uses.begin(), contract.uses.end(),
                [&](const LayerEdge &e) { return e.to == target; });
            if (declared) {
                usedEdges.insert({file.module, target});
                continue;
            }
            bool excepted = false;
            for (std::size_t i = 0; i < manifest.exceptions.size(); ++i) {
                const EdgeException &e = manifest.exceptions[i];
                if (e.file == srcRel(file.relPath) && e.to == target) {
                    usedExceptions[i] = true;
                    excepted = true;
                    break;
                }
            }
            if (excepted)
                continue;
            diags.push_back(
                {file.relPath, inc.line, "lay-edge",
                 "include of '" + inc.path + "' crosses the module "
                 "boundary " + file.module + " -> " + target +
                 " without a declared edge; add `\"" + target +
                 "\"` to [modules." + file.module + "].uses in " +
                 (opts.manifestRel.empty() ? "layers.toml"
                                           : opts.manifestRel) +
                 " (or a per-file exception) if the dependency is "
                 "intended"});
        }
    }

    if (!opts.fullTree)
        return;
    const std::string anchor =
        opts.manifestRel.empty() ? "layers.toml" : opts.manifestRel;
    for (const auto &[name, mod] : manifest.modules) {
        if (!modulesSeen.count(name))
            diags.push_back({anchor, mod.line, "lay-unused-edge",
                             "module '" + name + "' is declared but no "
                             "src/" + name + "/ files were indexed; "
                             "remove the stale table"});
        for (const auto &edge : mod.uses)
            if (!usedEdges.count({name, edge.to}))
                diags.push_back(
                    {anchor, edge.line, "lay-unused-edge",
                     "declared edge " + name + " -> " + edge.to +
                         " is exercised by no include; remove it so "
                         "the frozen boundary stays exact"});
    }
    for (std::size_t i = 0; i < manifest.exceptions.size(); ++i)
        if (!usedExceptions[i])
            diags.push_back(
                {anchor, manifest.exceptions[i].line, "lay-unused-edge",
                 "exception edge " + manifest.exceptions[i].file + " -> " +
                     manifest.exceptions[i].to +
                     " matched no include; remove it"});
}

// ---------------------------------------------------------------------------
// Include cycles (file level)
// ---------------------------------------------------------------------------

std::string
dirOf(const std::string &relPath)
{
    const std::size_t slash = relPath.find_last_of('/');
    return slash == std::string::npos ? "" : relPath.substr(0, slash);
}

void
passIncludeCycles(const ProjectIndex &index, std::vector<Diagnostic> &diags)
{
    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < index.files.size(); ++i)
        byPath[index.files[i].relPath] = i;

    // adjacency: file -> (target file, include line)
    std::vector<std::vector<std::pair<std::size_t, int>>> edges(
        index.files.size());
    for (std::size_t i = 0; i < index.files.size(); ++i) {
        const FileIndex &file = index.files[i];
        const std::string dir = dirOf(file.relPath);
        for (const auto &inc : file.includes) {
            if (inc.angled)
                continue;
            std::size_t target = index.files.size();
            for (const std::string &cand :
                 {dir.empty() ? inc.path : dir + "/" + inc.path,
                  "src/" + inc.path, inc.path}) {
                const auto it = byPath.find(cand);
                if (it != byPath.end()) {
                    target = it->second;
                    break;
                }
            }
            if (target < index.files.size())
                edges[i].push_back({target, inc.line});
        }
    }

    enum class Color { White, Grey, Black };
    std::vector<Color> color(index.files.size(), Color::White);
    std::vector<std::size_t> chain;
    std::set<std::string> reported;

    std::function<void(std::size_t)> visit = [&](std::size_t node) {
        color[node] = Color::Grey;
        chain.push_back(node);
        for (const auto &[target, line] : edges[node]) {
            if (color[target] == Color::Grey) {
                // Reconstruct the cycle; canonicalize (rotate so the
                // lexicographically smallest path leads) to report
                // each cycle exactly once.
                auto at = std::find(chain.begin(), chain.end(), target);
                std::vector<std::string> cycle;
                for (; at != chain.end(); ++at)
                    cycle.push_back(index.files[*at].relPath);
                const auto minIt =
                    std::min_element(cycle.begin(), cycle.end());
                std::rotate(cycle.begin(), minIt, cycle.end());
                std::string key;
                for (const auto &p : cycle)
                    key += p + " -> ";
                key += cycle.front();
                if (reported.insert(key).second)
                    diags.push_back(
                        {index.files[node].relPath, line, "lay-cycle",
                         "include cycle: " + key + "; break the cycle "
                         "with a forward declaration or by moving the "
                         "shared piece down a layer"});
            } else if (color[target] == Color::White) {
                visit(target);
            }
        }
        chain.pop_back();
        color[node] = Color::Black;
    };
    for (std::size_t i = 0; i < index.files.size(); ++i)
        if (color[i] == Color::White)
            visit(i);
}

// ---------------------------------------------------------------------------
// Exception contracts
// ---------------------------------------------------------------------------

void
passExceptionContracts(const ProjectIndex &index,
                       const LayersManifest &manifest,
                       std::vector<Diagnostic> &diags)
{
    if (!manifest.loaded)
        return;
    for (const auto &file : index.files) {
        if (file.module.empty())
            continue;
        const auto modIt = manifest.modules.find(file.module);
        if (modIt == manifest.modules.end())
            continue; // lay-module already fired
        const ModuleContract &contract = modIt->second;
        for (const auto &site : file.throwSites) {
            if (site.rethrow || site.type.empty())
                continue;
            // `throw err;` re-raises an object constructed (and
            // checked) elsewhere; only construction sites
            // (`throw Type(...)` / `throw Type{...}`) are contract
            // sites.  The indexer records the spelling either way, so
            // distinguish by the first character: type names are
            // capitalized or std::-qualified in this codebase.
            const std::string type = lastComponent(site.type);
            const bool constructed =
                !type.empty() &&
                (std::isupper(static_cast<unsigned char>(type[0])) ||
                 site.type.find("::") != std::string::npos);
            if (!constructed)
                continue;
            const bool allowed =
                std::find(contract.throws_.begin(), contract.throws_.end(),
                          type) != contract.throws_.end() ||
                std::find(contract.throws_.begin(), contract.throws_.end(),
                          site.type) != contract.throws_.end();
            if (allowed)
                continue;
            diags.push_back(
                {file.relPath, site.line, "exc-contract",
                 "module '" + file.module + "' throws '" + site.type +
                     "' but declares throws = [" +
                     [&] {
                         std::string list;
                         for (const auto &t : contract.throws_)
                             list += (list.empty() ? "" : ", ") + t;
                         return list;
                     }() +
                     "] in layers.toml; wrap the error in a declared "
                     "type or extend the module contract"});
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics audit
// ---------------------------------------------------------------------------

void
passAtomicsAudit(const ProjectIndex &index, std::vector<Diagnostic> &diags)
{
    for (const auto &file : index.files) {
        if (!startsWith(file.relPath, "src/"))
            continue;
        if (file.markers.countersOnly)
            continue;
        for (const auto &site : file.atomics) {
            if (site.order != "relaxed")
                continue;
            diags.push_back(
                {file.relPath, site.line, "atomics-relaxed",
                 "memory_order_relaxed provides no ordering; every "
                 "relaxed access needs an audited "
                 "'eval-lint: allow(atomics-relaxed) <why>' stating "
                 "why reordering is safe, or the file-level "
                 "'eval-lint: counters-only' marker if it only "
                 "carries monotone counters off the model path"});
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism data-flow over parallel regions
// ---------------------------------------------------------------------------

/** Captured-by-reference names in a lambda capture list. */
struct Captures
{
    bool defaultRef = false;
    std::set<std::string> byRef;
};

Captures
parseCaptures(const std::string &text)
{
    Captures out;
    std::string entry;
    int depth = 0;
    auto flush = [&]() {
        const std::string e = trimmed(entry);
        entry.clear();
        if (e.empty())
            return;
        if (e == "&") {
            out.defaultRef = true;
            return;
        }
        if (e[0] != '&')
            return; // by-value / this / *this: cannot leak writes out
        std::string name;
        for (std::size_t i = 1; i < e.size() && identChar(e[i]); ++i)
            name.push_back(e[i]);
        if (!name.empty())
            out.byRef.insert(name);
    };
    for (char c : text) {
        if (c == '(' || c == '[' || c == '{' || c == '<')
            ++depth;
        else if (c == ')' || c == ']' || c == '}' || c == '>')
            --depth;
        if (c == ',' && depth == 0)
            flush();
        else
            entry.push_back(c);
    }
    flush();
    return out;
}

/** Names declared inside the body (locals): best-effort — an
 *  identifier preceded by a type-ish token and followed by an
 *  initializer or call. */
std::set<std::string>
bodyLocals(const std::string &body, const std::vector<std::string> &params)
{
    std::set<std::string> locals(params.begin(), params.end());
    static const std::regex declRe(
        R"((?:^|[;{}(])\s*(?:const\s+)?(?:auto|[A-Za-z_][\w:]*(?:<[^<>;{}]*>)?)\s*[&*]?\s+([A-Za-z_]\w*)\s*(?:=|\(|\{|;))");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), declRe);
         it != std::sregex_iterator(); ++it)
        locals.insert((*it)[1].str());
    return locals;
}

void
passDeterminismFlow(const ProjectIndex &index,
                    std::vector<Diagnostic> &diags)
{
    // Order-dependent container mutations: growing, shrinking, or
    // re-arranging a shared object from inside a parallel body makes
    // the result depend on the schedule.  Slot-indexed writes
    // (out[i] = ...) never match; neither do CampaignAccumulator-
    // style merge folds (merge happens serially after the fan-out).
    static const char *mutators[] = {
        "push_back", "emplace_back", "push_front", "emplace_front",
        "emplace",   "insert",       "erase",      "clear",
        "resize",    "assign",       "append",     "push",
        "pop",       "pop_back",     "pop_front",
    };
    for (const auto &file : index.files) {
        if (!startsWith(file.relPath, "src/") &&
            !startsWith(file.relPath, "bench/"))
            continue;
        for (const auto &region : file.regions) {
            const Captures caps = parseCaptures(region.captures);
            if (!caps.defaultRef && caps.byRef.empty())
                continue;
            const std::set<std::string> locals =
                bodyLocals(region.body, region.params);
            auto flag = [&](std::size_t at, const std::string &name,
                            const std::string &what) {
                diags.push_back(
                    {file.relPath,
                     file.lineAt(region.bodyOffset + at),
                     "det-par-capture",
                     "'" + name + "' is captured by reference and " +
                         what + " inside a " + region.entry +
                         " body; the result depends on the thread "
                         "schedule.  Write to a per-index slot "
                         "(out[i] = ...), fold through a merge type "
                         "(CampaignAccumulator) after the fan-out, or "
                         "justify with an audited suppression"});
            };
            for (const char *m : mutators) {
                for (std::size_t pos :
                     findTokens(region.body, m, true)) {
                    // Receiver: `name.m(` or `name->m(` — but what
                    // decides shared-vs-local is the ROOT of the
                    // member chain (`runs.base.resize(...)` mutates
                    // `runs`), so walk the whole `a.b[i]->c` chain
                    // back to its leading identifier.
                    std::size_t p = pos;
                    if (p >= 1 && region.body[p - 1] == '.')
                        p -= 1;
                    else if (p >= 2 && region.body[p - 1] == '>' &&
                             region.body[p - 2] == '-')
                        p -= 2;
                    else
                        continue;
                    std::string recv;
                    std::size_t b = p;
                    while (true) {
                        const std::size_t e = b;
                        while (b > 0 && identChar(region.body[b - 1]))
                            --b;
                        if (b == e) {
                            // Chain roots in a call result (`f().v`):
                            // not a capture name; stay silent.
                            recv.clear();
                            break;
                        }
                        recv = region.body.substr(b, e - b);
                        if (b >= 1 && region.body[b - 1] == '.') {
                            --b;
                        } else if (b >= 2 && region.body[b - 1] == '>' &&
                                   region.body[b - 2] == '-') {
                            b -= 2;
                        } else if (b >= 1 && region.body[b - 1] == ']') {
                            int depth = 1;
                            std::size_t i = b - 1;
                            while (i > 0 && depth != 0) {
                                --i;
                                if (region.body[i] == ']')
                                    ++depth;
                                else if (region.body[i] == '[')
                                    --depth;
                            }
                            if (depth != 0) {
                                recv.clear();
                                break;
                            }
                            b = i;
                        } else {
                            break;
                        }
                    }
                    if (recv.empty() || recv == "this")
                        continue;
                    const bool shared =
                        caps.byRef.count(recv) ||
                        (caps.defaultRef && !locals.count(recv));
                    if (shared)
                        flag(pos, recv,
                             "mutated ('" + std::string(m) + "')");
                }
            }
            // Compound accumulation onto a shared scalar:
            // `name += ...` / `name -= ...` / `name *= ...`.
            static const std::regex accumRe(
                R"(([A-Za-z_]\w*)\s*[+\-*]=)");
            for (auto it = std::sregex_iterator(region.body.begin(),
                                                region.body.end(),
                                                accumRe);
                 it != std::sregex_iterator(); ++it) {
                const std::string recv = (*it)[1].str();
                const bool shared =
                    caps.byRef.count(recv) ||
                    (caps.defaultRef && !locals.count(recv));
                if (shared)
                    flag(static_cast<std::size_t>(it->position()), recv,
                         "accumulated into ('" + (*it)[0].str() + "')");
            }
        }
    }
}

} // namespace

std::vector<Diagnostic>
runProjectPasses(const ProjectIndex &index, const LayersManifest &manifest,
                 const std::vector<std::string> &manifestErrors,
                 const PassOptions &opts)
{
    std::vector<Diagnostic> diags;

    const std::string anchor =
        opts.manifestRel.empty() ? "layers.toml" : opts.manifestRel;
    for (const auto &err : manifestErrors) {
        // Parser errors are "line N: message"; lift the line number
        // into the diagnostic so editors can jump to it.
        int line = 1;
        std::string message = err;
        static const std::regex lineRe(R"(^line (\d+): (.*)$)");
        std::smatch m;
        if (std::regex_match(err, m, lineRe)) {
            line = std::stoi(m[1].str());
            message = m[2].str();
        }
        diags.push_back({anchor, line, "lay-manifest",
                         "layers manifest: " + message});
    }

    passLayering(index, manifest, opts, diags);
    passIncludeCycles(index, diags);
    passExceptionContracts(index, manifest, diags);
    passAtomicsAudit(index, diags);
    passDeterminismFlow(index, diags);
    return diags;
}

} // namespace eval::lint
