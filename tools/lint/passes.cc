#include "passes.hh"

#include <algorithm>
#include <regex>
#include <set>

#include "lint.hh"

namespace eval::lint {

namespace {

// ---------------------------------------------------------------------------
// Layering contract
// ---------------------------------------------------------------------------

void
passLayering(const ProjectIndex &index, const LayersManifest &manifest,
             std::vector<Diagnostic> &diags)
{
    if (!manifest.loaded)
        return;

    std::set<std::pair<std::string, std::string>> usedEdges; // (from, to)
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
                     manifest.path +
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
            diags.push_back(
                {file.relPath, inc.line, "lay-edge",
                 "include of '" + inc.path + "' crosses the module "
                 "boundary " + file.module + " -> " + target +
                 " without a declared edge; add `\"" + target +
                 "\"` to [modules." + file.module + "].uses in " +
                 manifest.path + " if the dependency is intended"});
        }
    }

    for (const auto &[name, mod] : manifest.modules) {
        if (!modulesSeen.count(name))
            diags.push_back({manifest.path, mod.line, "lay-unused-edge",
                             "module '" + name + "' is declared but no "
                             "src/" + name + "/ files were indexed; "
                             "remove the stale table"});
        for (const auto &edge : mod.uses)
            if (!usedEdges.count({name, edge.to}))
                diags.push_back(
                    {manifest.path, edge.line, "lay-unused-edge",
                     "declared edge " + name + " -> " + edge.to +
                         " is exercised by no include; remove it so "
                         "the frozen boundary stays exact"});
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

/** Root identifier of the member chain whose method is called at
 *  @p pos in @p body: `runs.base->resize(` -> "runs", since the root
 *  decides shared-vs-local.  "" when @p pos is not a member call
 *  (`.m(` or `->m(`), or the chain passes through a subscript (a
 *  per-index slot, `out[i].clear(`) or a call result (`f().v`). */
std::string
receiverRoot(const std::string &body, std::size_t pos)
{
    // Step `at` back over one `.` or `->`; false if neither is there.
    const auto memberAccess = [&](std::size_t &at) {
        if (at >= 1 && body[at - 1] == '.')
            at -= 1;
        else if (at >= 2 && body[at - 1] == '>' && body[at - 2] == '-')
            at -= 2;
        else
            return false;
        return true;
    };
    std::size_t b = pos;
    if (!memberAccess(b))
        return "";
    while (true) {
        const std::size_t e = b;
        while (b > 0 && identChar(body[b - 1]))
            --b;
        if (b == e)
            return "";
        if (!memberAccess(b))
            return body.substr(b, e - b);
    }
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
            const auto shared = [&](const std::string &name) {
                return caps.byRef.count(name) ||
                       (caps.defaultRef && !locals.count(name));
            };
            for (const char *m : mutators)
                for (std::size_t pos : findTokens(region.body, m, true)) {
                    const std::string recv = receiverRoot(region.body, pos);
                    if (!recv.empty() && recv != "this" && shared(recv))
                        flag(pos, recv,
                             "mutated ('" + std::string(m) + "')");
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
                if (shared(recv))
                    flag(static_cast<std::size_t>(it->position()), recv,
                         "accumulated into ('" + (*it)[0].str() + "')");
            }
        }
    }
}

} // namespace

std::vector<Diagnostic>
runProjectPasses(const ProjectIndex &index, const LayersManifest &manifest,
                 const std::vector<ManifestError> &manifestErrors)
{
    std::vector<Diagnostic> diags;
    for (const auto &err : manifestErrors)
        diags.push_back({manifest.path, err.line, "lay-manifest",
                         "layers manifest: " + err.message});
    passLayering(index, manifest, diags);
    passAtomicsAudit(index, diags);
    passDeterminismFlow(index, diags);
    return diags;
}

} // namespace eval::lint
