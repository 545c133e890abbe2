#include "source_scan.hh"

#include <algorithm>
#include <cctype>

namespace eval::lint {

Scan
scanSource(const std::string &in)
{
    Scan scan;
    scan.code.assign(in.size(), ' ');
    scan.lineStart.push_back(0);

    enum class St { Code, LineComment, BlockComment, Str, Chr, RawStr };
    St st = St::Code;
    int line = 1;
    std::string rawDelim; // for raw strings: ")delim\""

    auto comment = [&](char c) { scan.lineComments[line].push_back(c); };

    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char n = i + 1 < in.size() ? in[i + 1] : '\0';
        if (c == '\n') {
            scan.code[i] = '\n';
            ++line;
            scan.lineStart.push_back(i + 1);
            if (st == St::LineComment)
                st = St::Code;
            continue;
        }
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                comment(c);
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
            } else if (c == '"') {
                // Raw string?  Look back for an R prefix (R, uR, u8R,
                // UR, LR) that is not part of a longer identifier.
                bool raw = false;
                if (i > 0 && in[i - 1] == 'R') {
                    std::size_t p = i - 1;
                    while (p > 0 && std::isalnum(
                                        static_cast<unsigned char>(in[p - 1])))
                        --p;
                    const std::string prefix = in.substr(p, i - p);
                    raw = prefix == "R" || prefix == "uR" || prefix == "u8R" ||
                          prefix == "UR" || prefix == "LR";
                }
                if (raw) {
                    // clear()+push_back, not = ")": GCC 12 flags the
                    // literal assignment with a false -Wrestrict.
                    rawDelim.clear();
                    rawDelim.push_back(')');
                    for (std::size_t j = i + 1;
                         j < in.size() && in[j] != '('; ++j)
                        rawDelim.push_back(in[j]);
                    rawDelim.push_back('"');
                    st = St::RawStr;
                } else {
                    st = St::Str;
                }
                scan.code[i] = '"';
            } else if (c == '\'') {
                st = St::Chr;
                scan.code[i] = '\'';
            } else {
                scan.code[i] = c;
            }
            break;
        case St::LineComment:
            comment(c);
            break;
        case St::BlockComment:
            if (c == '*' && n == '/') {
                ++i;
                st = St::Code;
            }
            break;
        case St::Str:
            if (c == '\\')
                ++i; // skip escaped char (stays blanked)
            else if (c == '"') {
                scan.code[i] = '"';
                st = St::Code;
            }
            break;
        case St::Chr:
            if (c == '\\')
                ++i;
            else if (c == '\'') {
                scan.code[i] = '\'';
                st = St::Code;
            }
            break;
        case St::RawStr:
            if (c == rawDelim[0] &&
                in.compare(i, rawDelim.size(), rawDelim) == 0) {
                i += rawDelim.size() - 1;
                scan.code[i] = '"';
                st = St::Code;
            }
            break;
        }
    }
    return scan;
}

int
lineOf(const Scan &scan, std::size_t offset)
{
    auto it = std::upper_bound(scan.lineStart.begin(), scan.lineStart.end(),
                               offset);
    return static_cast<int>(it - scan.lineStart.begin());
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<std::size_t>
findTokens(const std::string &code, const std::string &name, bool callParen)
{
    std::vector<std::size_t> hits;
    for (std::size_t pos = code.find(name); pos != std::string::npos;
         pos = code.find(name, pos + 1)) {
        if (pos > 0 && identChar(code[pos - 1]))
            continue;
        std::size_t end = pos + name.size();
        if (end < code.size() && identChar(code[end]))
            continue;
        if (callParen) {
            while (end < code.size() &&
                   (code[end] == ' ' || code[end] == '\t'))
                ++end;
            if (end >= code.size() || code[end] != '(')
                continue;
        }
        hits.push_back(pos);
    }
    return hits;
}

std::string
trimmed(std::string s)
{
    const auto notSpace = [](unsigned char c) { return !std::isspace(c); };
    s.erase(s.begin(), std::find_if(s.begin(), s.end(), notSpace));
    s.erase(std::find_if(s.rbegin(), s.rend(), notSpace).base(), s.end());
    return s;
}

bool
lineIsBlankCode(const Scan &scan, int line)
{
    if (line < 1 || line > static_cast<int>(scan.lineStart.size()))
        return true;
    std::size_t begin = scan.lineStart[line - 1];
    std::size_t end = line < static_cast<int>(scan.lineStart.size())
                          ? scan.lineStart[line]
                          : scan.code.size();
    for (std::size_t i = begin; i < end; ++i) {
        const char c = scan.code[i];
        if (!std::isspace(static_cast<unsigned char>(c)) && c != '"' &&
            c != '\'')
            return false;
    }
    return true;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

std::size_t
matchBracket(const std::string &code, std::size_t open, char opener,
             char closer)
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == opener)
            ++depth;
        else if (code[i] == closer && --depth == 0)
            return i;
    }
    return open;
}

} // namespace eval::lint
