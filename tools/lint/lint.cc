#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

#include "index.hh"
#include "layers.hh"
#include "passes.hh"
#include "source_scan.hh"
#include "suppress.hh"

namespace eval::lint {

namespace {

// ---------------------------------------------------------------------------
// Token-level rules (phase 1, per file)
// ---------------------------------------------------------------------------

struct Ctx
{
    const std::string &relPath;
    const Scan &scan;
    const FileMarkers &markers;
    std::vector<Diagnostic> &diags;

    void
    emit(std::size_t offset, const char *rule, std::string message) const
    {
        diags.push_back({relPath, lineOf(scan, offset), rule,
                         std::move(message)});
    }
};

void
ruleDetUnordered(const Ctx &ctx)
{
    if (!startsWith(ctx.relPath, "src/"))
        return;
    static const char *toks[] = {
        "unordered_map", "unordered_set",
        "unordered_multimap", "unordered_multiset",
    };
    for (const char *t : toks) {
        for (std::size_t pos : findTokens(ctx.scan.code, t, false)) {
            // Skip the #include line; the declaration is the
            // actionable site and one finding per site is enough.
            std::size_t ls = ctx.scan.lineStart[lineOf(ctx.scan, pos) - 1];
            while (ls < pos && std::isspace(
                                   static_cast<unsigned char>(
                                       ctx.scan.code[ls])))
                ++ls;
            if (ctx.scan.code[ls] == '#')
                continue;
            ctx.emit(pos, "det-unordered",
                     std::string("'std::") + t + "' in model code: "
                         "iteration order is unspecified and can leak "
                         "into float accumulation or output ordering; "
                         "use an ordered container or suppress with a "
                         "justification");
        }
    }
}

const std::regex sizedVec(R"(vector\s*<[^;{}()]*>\s+\w+\s*\()");

void
rulePerfHotAlloc(const Ctx &ctx)
{
    // Hot-kernel scope: the inner-loop kernel layer (src/kernels/),
    // plus any file opting in with the hot-path marker (parsed into
    // FileMarkers by parseSuppressions; spelled nowhere in this file
    // so the linter cannot mark itself hot).  These
    // regions run millions of times per experiment; a heap allocation
    // (or a std::function dispatch, which usually allocates) on such a
    // path is a per-call cost the kernel layer exists to eliminate.
    // Construction-time allocation is fine — carry an audited
    // suppression saying so.
    const bool hot =
        startsWith(ctx.relPath, "src/kernels/") || ctx.markers.hotPath;
    if (!hot)
        return;
    const std::string &code = ctx.scan.code;

    for (std::size_t pos : findTokens(code, "new", false))
        ctx.emit(pos, "perf-hot-alloc",
                 "'new' in a hot kernel; use stack storage or a "
                 "caller-provided buffer (construction-time allocation "
                 "carries an audited suppression)");

    // make_unique/make_shared are matched as bare tokens (not call
    // sites) so explicit template arguments — `make_unique<T>(...)` —
    // are still caught.
    struct Alloc { const char *name; bool call; };
    static const Alloc allocCalls[] = {{"malloc", true},
                                       {"calloc", true},
                                       {"realloc", true},
                                       {"make_unique", false},
                                       {"make_shared", false}};
    for (const auto &[t, call] : allocCalls)
        for (std::size_t pos : findTokens(code, t, call))
            ctx.emit(pos, "perf-hot-alloc",
                     std::string("'") + t + "' allocates in a hot "
                         "kernel; use stack storage or a caller-provided "
                         "buffer (construction-time allocation carries "
                         "an audited suppression)");

    for (std::size_t pos : findTokens(code, "function", false)) {
        // Only std::function (:: qualified); plain identifiers named
        // `function` in prose-like code stay quiet.
        if (pos < 2 || code.compare(pos - 2, 2, "::") != 0)
            continue;
        ctx.emit(pos, "perf-hot-alloc",
                 "'std::function' in a hot kernel type-erases and "
                 "usually heap-allocates per construction; take a "
                 "template callable or inline the expression");
    }

    const std::vector<std::size_t> reserves =
        findTokens(code, "reserve", true);
    static const char *growers[] = {"push_back", "emplace_back"};
    for (const char *t : growers) {
        for (std::size_t pos : findTokens(code, t, true)) {
            const bool reservedBefore =
                std::any_of(reserves.begin(), reserves.end(),
                            [&](std::size_t r) { return r < pos; });
            if (reservedBefore)
                continue;
            ctx.emit(pos, "perf-hot-alloc",
                     std::string("'") + t + "' with no preceding "
                         "reserve() in a hot kernel reallocates as it "
                         "grows; reserve the final size first");
        }
    }

    // A sized local vector (`std::vector<T> name(n)`) allocates per
    // call.  Declarations without a parenthesized initializer (member
    // fields, signatures) don't match.
    const std::string ext =
        std::filesystem::path(ctx.relPath).extension().string();
    if (ext != ".hh" && ext != ".h" && ext != ".hpp") {
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            sizedVec);
             it != std::sregex_iterator(); ++it)
            ctx.emit(static_cast<std::size_t>(it->position()),
                     "perf-hot-alloc",
                     "sized std::vector local allocates per call in a "
                     "hot kernel; use a caller-provided buffer or "
                     "justify with an audited suppression");
    }
}

void
runFileRules(const Ctx &ctx)
{
    ruleDetUnordered(ctx);
    rulePerfHotAlloc(ctx);
}

void
sortDiags(std::vector<Diagnostic> &diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    diags.erase(std::unique(diags.begin(), diags.end()), diags.end());
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

bool
readFile(const std::filesystem::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/** What phase 1 leaves for one file besides its index: the token-rule
 *  and bad-suppression findings, and the suppressions to apply once
 *  the project passes have added theirs. */
struct PerFile
{
    std::vector<Diagnostic> diags;
    std::vector<Suppression> supps;
};

PerFile
scanOneFile(const std::string &rel, const std::string &content,
            ProjectIndex &index)
{
    PerFile out;
    const Scan scan = scanSource(content);
    FileMarkers markers;
    out.supps = parseSuppressions(scan, rel, out.diags, markers);
    runFileRules({rel, scan, markers, out.diags});
    index.files.push_back(buildFileIndex(rel, content, scan, markers));
    return out;
}

bool
hasLintExtension(const std::filesystem::path &p)
{
    static const std::set<std::string> exts = {".cc", ".cpp", ".cxx",
                                               ".hh", ".h",   ".hpp"};
    return exts.count(p.extension().string()) > 0;
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"det-unordered",
         "no std::unordered_{map,set} in src/ without an audited "
         "justification (iteration order is unspecified)"},
        {"det-par-capture",
         "parallelFor/parallelMap lambdas must not mutate or "
         "accumulate into by-reference captures order-dependently; "
         "write per-index slots or merge after the fan-out"},
        {"lay-edge",
         "every cross-module include under src/ needs a `uses` edge "
         "in tools/lint/layers.toml (never inline-suppressible)"},
        {"lay-module",
         "every src/ module must be declared in tools/lint/layers.toml "
         "(never inline-suppressible)"},
        {"lay-unused-edge",
         "declared edges and module tables that match nothing are "
         "stale and must be removed (never inline-suppressible)"},
        {"lay-manifest",
         "tools/lint/layers.toml must parse and its `uses` edges must "
         "form a DAG (never inline-suppressible)"},
        {"atomics-relaxed",
         "every memory_order_relaxed needs an audited "
         "allow(atomics-relaxed) or the file-level "
         "'eval-lint: counters-only <why>' marker"},
        {"perf-hot-alloc",
         "no heap allocation (new, malloc, make_unique/shared, "
         "std::function, unreserved push_back, sized vector locals) in "
         "hot kernels: src/kernels/ and files marked "
         "'eval-lint: hot-path'"},
        {"lint-bad-suppression",
         "suppressions must name known rules and carry a justification "
         "(reported, never suppressible)"},
        {"lint-unused-suppression",
         "suppressions that match no finding are findings themselves "
         "(reported, never suppressible)"},
    };
    return catalog;
}

bool
isKnownRule(const std::string &id)
{
    const auto &cat = ruleCatalog();
    return std::any_of(cat.begin(), cat.end(),
                       [&](const RuleInfo &r) { return r.id == id; });
}

std::vector<Diagnostic>
lintSource(const std::string &relPath, const std::string &content)
{
    // With no manifest the layering pass skips itself; the atomics
    // audit and determinism data-flow need only this file's index.
    ProjectIndex index;
    PerFile pf = scanOneFile(relPath, content, index);
    for (auto &d : runProjectPasses(index, LayersManifest{}, {}))
        pf.diags.push_back(std::move(d));
    applySuppressions(pf.diags, pf.supps, relPath);
    sortDiags(pf.diags);
    return pf.diags;
}

std::vector<Diagnostic>
runLint(const Options &opts, std::string *error)
{
    namespace fs = std::filesystem;
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return std::vector<Diagnostic>{};
    };
    const fs::path &root = opts.root;
    if (!fs::is_directory(root))
        return fail("lint root is not a directory: " + root.string());

    const auto excluded = [&](const std::string &rel) {
        return std::any_of(opts.excludes.begin(), opts.excludes.end(),
                           [&](const std::string &x) {
                               return rel.find(x) != std::string::npos;
                           });
    };
    std::vector<std::string> files;
    std::error_code ec;
    for (const char *dir : {"src", "bench", "tests", "examples", "tools"}) {
        if (!fs::is_directory(root / dir))
            continue;
        fs::recursive_directory_iterator it(root / dir, ec);
        for (; !ec && it != fs::recursive_directory_iterator();
             it.increment(ec)) {
            const std::string rel =
                it->path().lexically_relative(root).generic_string();
            if (it->is_regular_file(ec) && hasLintExtension(it->path()) &&
                !excluded(rel))
                files.push_back(rel);
            if (ec)
                break;
        }
        if (ec)
            return fail("cannot list " + (root / dir).string() + ": " +
                        ec.message());
    }
    // Sorted, so pass order never depends on directory-iteration order.
    std::sort(files.begin(), files.end());

    // Phase 1: scan, token rules, suppressions, index, per file.
    ProjectIndex index;
    std::vector<PerFile> scanned;
    scanned.reserve(files.size());
    for (const std::string &rel : files) {
        std::string content;
        if (!readFile(root / rel, content))
            return fail("cannot read " + (root / rel).string());
        scanned.push_back(scanOneFile(rel, content, index));
    }

    LayersManifest manifest;
    std::vector<ManifestError> manifestErrors;
    for (const char *cand : {"tools/lint/layers.toml", "layers.toml"}) {
        if (!fs::is_regular_file(root / cand))
            continue;
        std::string text;
        if (!readFile(root / cand, text))
            return fail("cannot read " + (root / cand).string());
        manifest = parseLayers(text, manifestErrors);
        manifest.path = cand;
        break;
    }

    // Phase 2: project passes over the full index.  Each file's
    // suppressions then apply to its findings from both phases;
    // manifest-anchored findings (lay-manifest, lay-unused-edge) ride
    // on no scanned file and pass through as they are.
    std::map<std::string, std::vector<Diagnostic>> byFile;
    for (auto &d : runProjectPasses(index, manifest, manifestErrors))
        byFile[d.file].push_back(std::move(d));
    std::vector<Diagnostic> diags;
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::vector<Diagnostic> &merged = scanned[i].diags;
        const auto it = byFile.find(files[i]);
        if (it != byFile.end()) {
            merged.insert(merged.end(), it->second.begin(),
                          it->second.end());
            byFile.erase(it);
        }
        applySuppressions(merged, scanned[i].supps, files[i]);
        diags.insert(diags.end(), merged.begin(), merged.end());
    }
    for (const auto &[file, rest] : byFile)
        diags.insert(diags.end(), rest.begin(), rest.end());

    sortDiags(diags);
    return diags;
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    return d.file + ':' + std::to_string(d.line) + ": [" + d.rule + "] " +
           d.message;
}

} // namespace eval::lint
