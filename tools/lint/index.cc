#include "index.hh"

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

namespace eval::lint {

int
FileIndex::lineAt(std::size_t offset) const
{
    auto it = std::upper_bound(lineStart.begin(), lineStart.end(), offset);
    return static_cast<int>(it - lineStart.begin());
}

std::string
moduleOf(const std::string &relPath)
{
    if (!startsWith(relPath, "src/"))
        return "";
    const std::size_t begin = 4;
    const std::size_t slash = relPath.find('/', begin);
    if (slash == std::string::npos)
        return ""; // file directly under src/ belongs to no module
    return relPath.substr(begin, slash - begin);
}

namespace {

const std::regex incRe(R"(^[ \t]*#[ \t]*include[ \t]*(["<])([^">]+)[">])");

void
indexIncludes(const std::string &content, FileIndex &out)
{
    std::istringstream lines(content);
    std::string line;
    int lineNo = 0;
    while (std::getline(lines, line)) {
        ++lineNo;
        std::smatch m;
        if (!std::regex_search(line, m, incRe))
            continue;
        IncludeSite site;
        site.path = m[2].str();
        site.line = lineNo;
        site.angled = m[1].str() == "<";
        out.includes.push_back(std::move(site));
    }
}

const std::regex orderRe(
    R"(memory_order(::|_)(relaxed|consume|acquire|release|acq_rel|seq_cst))");

void
indexAtomics(const Scan &scan, FileIndex &out)
{
    const std::string &code = scan.code;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), orderRe);
         it != std::sregex_iterator(); ++it)
        out.atomics.push_back(
            {(*it)[2].str(), lineOf(scan, it->position())});
}

/** Parse the lambda starting at the '[' at @p lb (if it is one) into
 *  @p region; returns false when the bracket is a subscript, not a
 *  lambda introducer. */
bool
parseLambda(const Scan &scan, std::size_t lb, ParallelRegion &region)
{
    const std::string &code = scan.code;
    // A lambda introducer's ']' is followed (modulo whitespace) by
    // '(' (parameter list), '{' (no parameters), or a specifier like
    // `mutable`.  A subscript's ']' is not.
    const std::size_t rb = matchBracket(code, lb, '[', ']');
    if (rb == lb)
        return false;
    std::size_t p = rb + 1;
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p])))
        ++p;
    if (p >= code.size() || (code[p] != '(' && code[p] != '{'))
        return false;

    region.captures = trimmed(code.substr(lb + 1, rb - lb - 1));

    std::size_t bodyOpen;
    if (code[p] == '(') {
        const std::size_t closeParams = matchBracket(code, p, '(', ')');
        if (closeParams == p)
            return false;
        // Parameter names: the last identifier of each comma-separated
        // declarator (before any default value).
        const std::string paramText =
            code.substr(p + 1, closeParams - p - 1);
        std::string current;
        int depth = 0;
        auto flush = [&]() {
            const std::string decl = current.substr(
                0, std::min(current.find('='), current.size()));
            std::string name;
            std::string word;
            for (char c : decl + " ") {
                if (identChar(c)) {
                    word.push_back(c);
                } else {
                    if (!word.empty() && !std::isdigit(
                                             static_cast<unsigned char>(
                                                 word[0])))
                        name = word;
                    word.clear();
                }
            }
            if (!name.empty())
                region.params.push_back(name);
            current.clear();
        };
        for (char c : paramText) {
            if (c == '<' || c == '(' || c == '[')
                ++depth;
            else if (c == '>' || c == ')' || c == ']')
                --depth;
            if (c == ',' && depth == 0)
                flush();
            else
                current.push_back(c);
        }
        if (!trimmed(current).empty())
            flush();
        bodyOpen = code.find('{', closeParams);
    } else {
        bodyOpen = p;
    }
    if (bodyOpen == std::string::npos)
        return false;
    const std::size_t bodyClose = matchBracket(code, bodyOpen, '{', '}');
    if (bodyClose == bodyOpen)
        return false;
    region.body = code.substr(bodyOpen + 1, bodyClose - bodyOpen - 1);
    region.bodyOffset = bodyOpen + 1;
    return true;
}

void
indexParallelRegions(const Scan &scan, FileIndex &out)
{
    const std::string &code = scan.code;
    static const char *entries[] = {"parallelFor", "parallelMap"};
    for (const char *entry : entries) {
        for (std::size_t pos : findTokens(code, entry, true)) {
            const std::size_t open = code.find('(', pos);
            const std::size_t close = matchBracket(code, open, '(', ')');
            if (close == open)
                continue; // unbalanced (partial file)
            for (std::size_t lb = code.find('[', open);
                 lb != std::string::npos && lb < close;
                 lb = code.find('[', lb + 1)) {
                ParallelRegion region;
                region.entry = entry;
                if (parseLambda(scan, lb, region)) {
                    out.regions.push_back(std::move(region));
                    break; // one lambda per fan-out call is the idiom
                }
            }
        }
    }
}

} // namespace

FileIndex
buildFileIndex(const std::string &relPath, const std::string &content,
               const Scan &scan, const FileMarkers &markers)
{
    FileIndex out;
    out.relPath = relPath;
    out.module = moduleOf(relPath);
    out.markers = markers;
    out.lineStart = scan.lineStart;

    indexIncludes(content, out);
    indexAtomics(scan, out);
    indexParallelRegions(scan, out);
    return out;
}

FileIndex
buildFileIndex(const std::string &relPath, const std::string &content)
{
    const Scan scan = scanSource(content);
    std::vector<Diagnostic> discard;
    FileMarkers markers;
    parseSuppressions(scan, relPath, discard, markers);
    return buildFileIndex(relPath, content, scan, markers);
}

} // namespace eval::lint
