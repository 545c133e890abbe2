#include "sarif.hh"

#include <sstream>

namespace eval::lint {

namespace {

std::string
jsonStr(const std::string &s)
{
    std::ostringstream out;
    out << '"';
    for (char c : s) {
        switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\t': out << "\\t"; break;
        case '\r': out << "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    out << '"';
    return out.str();
}

} // namespace

std::string
toSarif(const std::vector<Diagnostic> &diags, const std::string &rootUri)
{
    const auto &rules = ruleCatalog();
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"eval-lint\",\n"
        << "          \"informationUri\": "
           "\"https://example.invalid/eval/tools/lint\",\n"
        << "          \"rules\": [\n";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out << "            {\n"
            << "              \"id\": " << jsonStr(rules[i].id) << ",\n"
            << "              \"shortDescription\": { \"text\": "
            << jsonStr(rules[i].summary) << " }\n"
            << "            }" << (i + 1 < rules.size() ? "," : "")
            << "\n";
    }
    out << "          ]\n"
        << "        }\n"
        << "      },\n";
    if (!rootUri.empty()) {
        out << "      \"originalUriBaseIds\": {\n"
            << "        \"SRCROOT\": { \"uri\": " << jsonStr(rootUri)
            << " }\n"
            << "      },\n";
    }
    out << "      \"results\": [\n";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        std::size_t ruleIndex = 0;
        for (std::size_t r = 0; r < rules.size(); ++r)
            if (rules[r].id == d.rule) {
                ruleIndex = r;
                break;
            }
        out << "        {\n"
            << "          \"ruleId\": " << jsonStr(d.rule) << ",\n"
            << "          \"ruleIndex\": " << ruleIndex << ",\n"
            << "          \"level\": \"error\",\n"
            << "          \"message\": { \"text\": " << jsonStr(d.message)
            << " },\n";
        out << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": {\n"
            << "                  \"uri\": " << jsonStr(d.file);
        if (!rootUri.empty())
            out << ",\n                  \"uriBaseId\": \"SRCROOT\"";
        out << "\n                },\n"
            << "                \"region\": { \"startLine\": "
            << (d.line > 0 ? d.line : 1) << " }\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }" << (i + 1 < diags.size() ? "," : "") << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

} // namespace eval::lint
