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
// Path scoping
// ---------------------------------------------------------------------------

struct PathScope
{
    bool header = false;      ///< .hh/.h/.hpp
    bool inSrc = false;       ///< under src/
    bool timingExempt = false;  ///< entropy abstraction, trace, logging
    bool iostreamExempt = false; ///< the logging sink itself
};

PathScope
classify(const std::string &relPath)
{
    PathScope ps;
    const auto dot = relPath.find_last_of('.');
    const std::string ext =
        dot == std::string::npos ? "" : relPath.substr(dot);
    ps.header = ext == ".hh" || ext == ".h" || ext == ".hpp";
    ps.inSrc = startsWith(relPath, "src/");
    ps.timingExempt = startsWith(relPath, "src/util/random") ||
                      startsWith(relPath, "src/util/logging") ||
                      startsWith(relPath, "src/trace/");
    ps.iostreamExempt = startsWith(relPath, "src/util/logging");
    return ps;
}

// ---------------------------------------------------------------------------
// Token-level rules (phase 1, per file)
// ---------------------------------------------------------------------------

struct Ctx
{
    const std::string &relPath;
    const PathScope &scope;
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
ruleDetEntropy(const Ctx &ctx)
{
    if (ctx.scope.timingExempt)
        return;
    struct Tok { const char *name; bool call; };
    static const Tok toks[] = {
        {"rand", true},          {"srand", true},
        {"random_device", false}, {"time", true},
        {"clock", true},         {"gettimeofday", true},
        {"clock_gettime", true}, {"timespec_get", true},
    };
    for (const auto &t : toks)
        for (std::size_t pos : findTokens(ctx.scan.code, t.name, t.call))
            ctx.emit(pos, "det-entropy",
                     std::string("nondeterministic entropy/time source '") +
                         t.name + "'; draw from eval::Rng (src/util/random) "
                         "so every run reproduces from its seed");
}

void
ruleDetWallclock(const Ctx &ctx)
{
    if (!ctx.scope.inSrc || ctx.scope.timingExempt)
        return;
    static const char *toks[] = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "utc_clock", "file_clock",
    };
    for (const char *t : toks)
        for (std::size_t pos : findTokens(ctx.scan.code, t, false))
            ctx.emit(pos, "det-wallclock",
                     std::string("wall-clock type '") + t +
                         "' on a model path; timing belongs to "
                         "src/trace spans or logging timestamps");
}

void
ruleDetUnordered(const Ctx &ctx)
{
    if (!ctx.scope.inSrc)
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

void
ruleDetSharedRng(const Ctx &ctx)
{
    const std::string &code = ctx.scan.code;
    static const char *entries[] = {"parallelFor", "parallelMap"};
    static const char *draws[] = {"uniform",   "uniformInt", "gaussian",
                                  "bernoulli", "fork",       "next"};
    for (const char *entry : entries) {
        for (std::size_t pos : findTokens(code, entry, true)) {
            const std::size_t open = code.find('(', pos);
            const std::size_t close = matchParen(code, open);
            if (close == open)
                continue; // unbalanced (partial file); nothing to scan
            const std::string body = code.substr(open, close - open);
            if (!findTokens(body, "split", false).empty())
                continue; // split-derived streams inside the region
            for (const char *d : draws) {
                for (std::size_t rel : findTokens(body, d, true)) {
                    // Only member calls: `.draw(` or `->draw(`.
                    const std::size_t abs = open + rel;
                    const char prev = abs > 0 ? code[abs - 1] : '\0';
                    const bool member =
                        prev == '.' ||
                        (prev == '>' && abs > 1 && code[abs - 2] == '-');
                    if (!member)
                        continue;
                    ctx.emit(abs, "det-shared-rng",
                             std::string("Rng::") + d + " drawn inside a " +
                                 entry + " body with no Rng::split in the "
                                 "region; derive a per-task stream with "
                                 "split(index) so results are independent "
                                 "of the schedule");
                }
            }
        }
    }
}

const std::regex pragmaOnceRe(R"(^[ \t]*#[ \t]*pragma[ \t]+once\b)");

void
ruleHygPragmaOnce(const Ctx &ctx)
{
    if (!ctx.scope.header)
        return;
    std::istringstream lines(ctx.scan.code);
    std::string line;
    while (std::getline(lines, line))
        if (std::regex_search(line, pragmaOnceRe))
            return;
    ctx.diags.push_back({ctx.relPath, 1, "hyg-pragma-once",
                         "header is missing '#pragma once'"});
}

void
ruleHygUsingNamespace(const Ctx &ctx)
{
    if (!ctx.scope.header)
        return;
    for (std::size_t pos : findTokens(ctx.scan.code, "using", false)) {
        std::size_t p = pos + 5;
        while (p < ctx.scan.code.size() &&
               std::isspace(static_cast<unsigned char>(ctx.scan.code[p])))
            ++p;
        if (ctx.scan.code.compare(p, 9, "namespace") == 0 &&
            (p + 9 >= ctx.scan.code.size() ||
             !identChar(ctx.scan.code[p + 9])))
            ctx.emit(pos, "hyg-using-namespace",
                     "'using namespace' at header scope pollutes every "
                     "includer");
    }
}

void
ruleHygIostream(const Ctx &ctx)
{
    if (!ctx.scope.inSrc || ctx.scope.iostreamExempt)
        return;
    static const char *qualified[] = {"cout", "cerr", "clog"};
    for (const char *t : qualified) {
        for (std::size_t pos : findTokens(ctx.scan.code, t, false)) {
            // Require std:: (or ::) qualification so local identifiers
            // named e.g. `cout` in unrelated code don't trip it.
            if (pos < 2 || ctx.scan.code.compare(pos - 2, 2, "::") != 0)
                continue;
            ctx.emit(pos, "hyg-iostream",
                     std::string("'std::") + t + "' in library code; "
                         "use the logging layer (util/logging.hh) or "
                         "take an std::ostream&");
        }
    }
    static const char *printers[] = {"printf", "fprintf", "puts", "fputs"};
    for (const char *t : printers)
        for (std::size_t pos : findTokens(ctx.scan.code, t, true))
            ctx.emit(pos, "hyg-iostream",
                     std::string("'") + t + "' in library code; use the "
                         "logging layer (util/logging.hh)");
}

void
ruleObsSpanLeak(const Ctx &ctx)
{
    // ScopedSpan IS its scope: a heap span, a span pointer/reference,
    // or a raw begin/end handle call produces overlapping events the
    // Perfetto exporter cannot nest.  src/trace owns the raw API.
    if (startsWith(ctx.relPath, "src/trace/"))
        return;
    const std::string &code = ctx.scan.code;
    for (std::size_t pos : findTokens(code, "ScopedSpan", false)) {
        std::size_t before = pos;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(code[before - 1])))
            --before;
        const bool heap =
            before >= 3 && code.compare(before - 3, 3, "new") == 0 &&
            (before == 3 || !identChar(code[before - 4]));
        if (heap) {
            ctx.emit(pos, "obs-span-leak",
                     "heap-allocated ScopedSpan outlives its lexical "
                     "scope; declare it as a stack local so the span "
                     "closes where it opened");
            continue;
        }
        std::size_t after = pos + 10; // past "ScopedSpan"
        while (after < code.size() &&
               std::isspace(static_cast<unsigned char>(code[after])))
            ++after;
        if (after < code.size() &&
            (code[after] == '*' || code[after] == '&')) {
            ctx.emit(pos, "obs-span-leak",
                     "ScopedSpan pointer/reference lets a span handle "
                     "escape its scope; pass data, not spans, and open "
                     "a new span in the callee");
        }
    }
    static const char *rawApi[] = {"beginSpanImpl", "endSpanImpl",
                                   "pushOpenSpan", "popOpenSpan"};
    for (const char *t : rawApi)
        for (std::size_t pos : findTokens(code, t, true))
            ctx.emit(pos, "obs-span-leak",
                     std::string("raw span handle API '") + t +
                         "' outside src/trace; use the RAII ScopedSpan "
                         "so every span closes in the scope that "
                         "opened it");
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
    if (!ctx.scope.header) {
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

// A std::atomic declaration; group 1 is the declared name.
const std::regex atomicDecl(R"(\batomic\s*<[^;{}]*?>\s+(\w+))");

void
ruleAtomicsHotRmw(const Ctx &ctx)
{
    // Per-query paths: the PE/thermal kernels and the optimizer search
    // run tens of millions of times per campaign on every pool thread.
    // A raw atomic RMW there writes one cache line all threads share,
    // so counting goes through eval::Counter (per-thread slots).  The
    // counters-only marker does not exempt a file: it audits memory
    // orders, not contention.
    const std::string &rel = ctx.relPath;
    const bool perQuery = startsWith(rel, "src/kernels/") ||
                          startsWith(rel, "src/timing/") ||
                          startsWith(rel, "src/thermal/") ||
                          rel == "src/core/optimizer.cc";
    if (!perQuery)
        return;
    const std::string &code = ctx.scan.code;
    const std::string why =
        " writes a cache line every thread shares on a per-query path; "
        "count through eval::Counter (per-thread slots) or justify a "
        "once-per-object use with an audited suppression";

    for (const char *op :
         {"fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor"})
        for (std::size_t pos : findTokens(code, op, true))
            ctx.emit(pos, "atomics-hot-rmw",
                     std::string("atomic ") + op + why);

    // Operator RMWs (++, --, +=, ...) only on names this file declares
    // as std::atomic; plain integers are private to their thread.
    std::set<std::string> names;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), atomicDecl);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1].str());
    auto isIncDec = [&](std::size_t at) {
        return code.compare(at, 2, "++") == 0 ||
               code.compare(at, 2, "--") == 0;
    };
    for (const std::string &name : names) {
        for (std::size_t pos : findTokens(code, name, false)) {
            std::size_t before = pos;
            while (before > 0 && std::isspace(static_cast<unsigned char>(
                                     code[before - 1])))
                --before;
            std::size_t after = pos + name.size();
            while (after < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[after])))
                ++after;
            const bool compound = after + 1 < code.size() &&
                                  code[after + 1] == '=' &&
                                  std::string("+-|&^").find(code[after]) !=
                                      std::string::npos;
            if ((before >= 2 && isIncDec(before - 2)) || isIncDec(after) ||
                compound)
                ctx.emit(pos, "atomics-hot-rmw",
                         "operator RMW on std::atomic '" + name + "'" + why);
        }
    }
}

void
runFileRules(const Ctx &ctx)
{
    ruleDetEntropy(ctx);
    ruleDetWallclock(ctx);
    ruleDetUnordered(ctx);
    ruleDetSharedRng(ctx);
    ruleHygPragmaOnce(ctx);
    ruleHygUsingNamespace(ctx);
    ruleHygIostream(ctx);
    ruleObsSpanLeak(ctx);
    rulePerfHotAlloc(ctx);
    ruleAtomicsHotRmw(ctx);
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

/** Everything phase 1 produces for one file; consumed by phase 2. */
struct PerFile
{
    std::string rel;
    std::vector<Diagnostic> diags; ///< token rules + bad suppressions
    std::vector<Suppression> supps;
    FileIndex index;
    std::string readError;
};

PerFile
scanOneFile(const std::filesystem::path &full, const std::string &rel)
{
    PerFile out;
    out.rel = rel;
    std::ifstream in(full, std::ios::binary);
    if (!in) {
        out.readError = "cannot read " + full.string();
        return out;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();

    const Scan scan = scanSource(content);
    const PathScope scope = classify(rel);
    FileMarkers markers;
    out.supps = parseSuppressions(scan, rel, out.diags, &markers);
    Ctx ctx{rel, scope, scan, markers, out.diags};
    runFileRules(ctx);
    out.index = buildFileIndex(rel, content, scan, markers);
    return out;
}

bool
hasLintExtension(const std::filesystem::path &p)
{
    static const std::set<std::string> exts = {".cc", ".cpp", ".cxx",
                                               ".hh", ".h",   ".hpp"};
    return exts.count(p.extension().string()) > 0;
}

/**
 * Collect lintable files under root/relDir into @p out as (full path,
 * lexical relative path) pairs.  Directory symlinks are followed (a
 * linked subtree is part of the tree it is reachable from), with a
 * depth cap so a symlink cycle terminates instead of recursing
 * forever.  Relative paths are computed lexically from the iterator's
 * spelling — never via canonicalization — so a file reached through a
 * symlink keeps its in-tree path and rule scoping.
 */
void
collectFiles(const std::filesystem::path &root, const std::string &relDir,
             std::vector<std::pair<std::filesystem::path, std::string>> &out)
{
    namespace fs = std::filesystem;
    const fs::path full = root / relDir;
    std::error_code ec;
    auto it = fs::recursive_directory_iterator(
        full, fs::directory_options::follow_directory_symlink, ec);
    for (; !ec && it != fs::recursive_directory_iterator();
         it.increment(ec)) {
        if (it.depth() >= 32)
            it.disable_recursion_pending();
        std::error_code typeEc;
        if (!it->is_regular_file(typeEc) || typeEc)
            continue;
        if (!hasLintExtension(it->path()))
            continue;
        const std::string rel =
            it->path().lexically_relative(root).generic_string();
        out.push_back({it->path(), rel});
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"det-entropy",
         "no rand()/srand()/std::random_device/time()/gettimeofday "
         "outside src/util/random, src/util/logging, src/trace"},
        {"det-wallclock",
         "no std::chrono clock reads on src/ model paths (timing "
         "belongs to src/trace spans or logging timestamps)"},
        {"det-unordered",
         "no std::unordered_{map,set} in src/ without an audited "
         "justification (iteration order is unspecified)"},
        {"det-shared-rng",
         "parallelFor/parallelMap bodies must derive Rng streams via "
         "Rng::split, never draw from a shared stream"},
        {"det-par-capture",
         "parallelFor/parallelMap lambdas must not mutate or "
         "accumulate into by-reference captures order-dependently; "
         "write per-index slots or merge after the fan-out"},
        {"lay-edge",
         "every cross-module include under src/ needs a `uses` edge "
         "or per-file exception in tools/lint/layers.toml (never "
         "inline-suppressible)"},
        {"lay-cycle",
         "the file-level include graph must be acyclic (never "
         "inline-suppressible)"},
        {"lay-module",
         "every src/ module must be declared in tools/lint/layers.toml "
         "(never inline-suppressible)"},
        {"lay-unused-edge",
         "declared edges, exception entries, and module tables that "
         "match nothing are stale and must be removed (never "
         "inline-suppressible)"},
        {"lay-manifest",
         "tools/lint/layers.toml must parse and its `uses` edges must "
         "form a DAG (never inline-suppressible)"},
        {"exc-contract",
         "a `throw <Type>` inside module M must name a type in M's "
         "throws = [...] list in tools/lint/layers.toml"},
        {"atomics-relaxed",
         "every memory_order_relaxed needs an audited "
         "allow(atomics-relaxed) or the file-level "
         "'eval-lint: counters-only <why>' marker"},
        {"atomics-hot-rmw",
         "no raw std::atomic RMW (fetch_add/fetch_sub/++/--/+=...) on "
         "per-query paths: src/kernels/, src/timing/, src/thermal/, "
         "src/core/optimizer.cc (count through eval::Counter; "
         "counters-only does not exempt)"},
        {"hyg-pragma-once", "every header starts with #pragma once"},
        {"hyg-using-namespace", "no 'using namespace' at header scope"},
        {"hyg-iostream",
         "no std::cout/std::cerr/printf in src/ (use util/logging)"},
        {"obs-span-leak",
         "spans are RAII-only: no heap/pointer/reference ScopedSpan "
         "and no raw begin/end span calls outside src/trace"},
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
    const Scan scan = scanSource(content);
    const PathScope scope = classify(relPath);
    std::vector<Diagnostic> diags;
    FileMarkers markers;
    std::vector<Suppression> supps =
        parseSuppressions(scan, relPath, diags, &markers);
    Ctx ctx{relPath, scope, scan, markers, diags};
    runFileRules(ctx);

    // Single-file semantic passes: with no manifest the layering and
    // exception-contract passes skip themselves; the atomics audit and
    // determinism data-flow need only this file's index.
    ProjectIndex pidx;
    pidx.files.push_back(buildFileIndex(relPath, content, scan, markers));
    LayersManifest noManifest;
    PassOptions popts;
    popts.fullTree = false;
    auto passDiags = runProjectPasses(pidx, noManifest, {}, popts);
    diags.insert(diags.end(),
                 std::make_move_iterator(passDiags.begin()),
                 std::make_move_iterator(passDiags.end()));

    applySuppressions(diags, supps, relPath);
    sortDiags(diags);
    return diags;
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

    // Canonicalize the root only: `tree`, `tree/`, and `link-to-tree`
    // must behave identically, but paths *below* the root stay
    // lexical so symlinked subtrees keep their in-tree spelling.
    std::error_code ec;
    const fs::path root = fs::weakly_canonical(opts.root, ec);
    if (ec || !fs::is_directory(root))
        return fail("lint root is not a directory: " + opts.root.string());

    static const char *defaultPaths[] = {"src", "bench", "tests",
                                         "examples", "tools"};

    // The index always covers the default set so project passes see
    // the whole tree; explicitly requested paths scope which files
    // findings are *reported* for.
    std::vector<std::pair<fs::path, std::string>> files;
    for (const char *p : defaultPaths)
        if (fs::is_directory(root / p))
            collectFiles(root, p, files);

    std::set<std::string> requested;
    for (const auto &p : opts.paths) {
        const fs::path full = root / p;
        if (fs::is_regular_file(full)) {
            const std::string rel =
                fs::path(p).lexically_normal().generic_string();
            files.push_back({full, rel});
            requested.insert(rel);
            continue;
        }
        if (!fs::is_directory(full))
            return fail("no such file or directory: " + full.string());
        std::vector<std::pair<fs::path, std::string>> sub;
        collectFiles(root, p, sub);
        for (auto &fp : sub)
            requested.insert(fp.second);
        files.insert(files.end(), sub.begin(), sub.end());
    }

    const auto excluded = [&](const std::string &rel) {
        return std::any_of(opts.excludes.begin(), opts.excludes.end(),
                           [&](const std::string &x) {
                               return rel.find(x) != std::string::npos;
                           });
    };

    // Sort + dedupe by relative path (a file reachable both directly
    // and through a symlinked directory is linted once, under the
    // lexically smallest spelling it was found by).
    std::sort(files.begin(), files.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    files.erase(std::unique(files.begin(), files.end(),
                            [](const auto &a, const auto &b) {
                                return a.second == b.second;
                            }),
                files.end());
    files.erase(std::remove_if(files.begin(), files.end(),
                               [&](const auto &fp) {
                                   return excluded(fp.second);
                               }),
                files.end());

    // Phase 1: scan, token rules, suppressions, index, one file at a
    // time in sorted path order.
    std::vector<PerFile> scanned;
    scanned.reserve(files.size());
    for (const auto &[full, rel] : files) {
        scanned.push_back(scanOneFile(full, rel));
        if (!scanned.back().readError.empty())
            return fail(scanned.back().readError);
    }

    // Layering manifest: explicit path, else auto-discovery.
    fs::path manifestPath;
    std::string manifestRel;
    if (!opts.layersFile.empty()) {
        manifestPath = opts.layersFile.is_absolute()
                           ? opts.layersFile
                           : root / opts.layersFile;
        if (!fs::is_regular_file(manifestPath))
            return fail("layers manifest not found: " +
                        manifestPath.string());
        const fs::path rel = manifestPath.lexically_relative(root);
        manifestRel = (rel.empty() || *rel.begin() == "..")
                          ? manifestPath.generic_string()
                          : rel.generic_string();
    } else {
        for (const char *cand : {"tools/lint/layers.toml", "layers.toml"}) {
            if (fs::is_regular_file(root / cand)) {
                manifestPath = root / cand;
                manifestRel = cand;
                break;
            }
        }
    }

    LayersManifest manifest;
    std::vector<std::string> manifestErrors;
    if (!manifestPath.empty()) {
        std::ifstream in(manifestPath, std::ios::binary);
        if (!in)
            return fail("cannot read " + manifestPath.string());
        std::ostringstream buf;
        buf << in.rdbuf();
        manifest = parseLayers(buf.str(), manifestErrors);
        manifest.path = manifestRel;
    }

    // Phase 2: project passes over the full index.
    ProjectIndex pidx;
    pidx.files.reserve(scanned.size());
    for (auto &pf : scanned)
        pidx.files.push_back(pf.index);

    PassOptions popts;
    popts.fullTree = opts.paths.empty();
    popts.manifestRel = manifestRel;
    auto passDiags =
        runProjectPasses(pidx, manifest, manifestErrors, popts);

    std::map<std::string, std::vector<Diagnostic>> passByFile;
    for (auto &d : passDiags)
        passByFile[d.file].push_back(std::move(d));

    // Merge per file, apply that file's suppressions over everything
    // (token rules and pass findings alike), and scope the output to
    // the requested set.
    std::vector<Diagnostic> diags;
    std::set<std::string> scannedRel;
    for (auto &pf : scanned) {
        scannedRel.insert(pf.rel);
        if (!requested.empty() && !requested.count(pf.rel))
            continue;
        std::vector<Diagnostic> merged = std::move(pf.diags);
        auto it = passByFile.find(pf.rel);
        if (it != passByFile.end())
            merged.insert(merged.end(),
                          std::make_move_iterator(it->second.begin()),
                          std::make_move_iterator(it->second.end()));
        applySuppressions(merged, pf.supps, pf.rel);
        diags.insert(diags.end(),
                     std::make_move_iterator(merged.begin()),
                     std::make_move_iterator(merged.end()));
    }
    // Manifest-anchored findings (lay-manifest, lay-unused-edge) have
    // no scanned file to ride on; always surface them.
    for (auto &[file, fileDiags] : passByFile) {
        if (scannedRel.count(file))
            continue;
        diags.insert(diags.end(),
                     std::make_move_iterator(fileDiags.begin()),
                     std::make_move_iterator(fileDiags.end()));
    }

    sortDiags(diags);
    return diags;
}

int
exitCodeFor(const std::vector<Diagnostic> &diags)
{
    return diags.empty() ? 0 : 1;
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    std::ostringstream out;
    out << d.file << ':' << d.line << ": [" << d.rule << "] " << d.message;
    return out.str();
}

std::string
toJson(const std::vector<Diagnostic> &diags)
{
    const auto escape = [](const std::string &s) {
        std::string out;
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
        return out;
    };
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const auto &d = diags[i];
        out << "  {\"file\": \"" << escape(d.file) << "\", \"line\": "
            << d.line << ", \"rule\": \"" << escape(d.rule)
            << "\", \"message\": \"" << escape(d.message) << "\"}"
            << (i + 1 < diags.size() ? "," : "") << '\n';
    }
    out << "]\n";
    return out.str();
}

} // namespace eval::lint
