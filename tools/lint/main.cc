/**
 * @file
 * eval-lint command-line driver.
 *
 * Usage:
 *   eval_lint [--root DIR] [--exclude SUBSTR]... [--layers FILE]
 *             [--json FILE] [--sarif FILE] [--list-rules] [PATH...]
 *
 * PATHs are relative to --root (default: the current directory) and
 * default to src bench tests examples tools.  Exit codes: 0 clean,
 * 1 findings, 2 usage or I/O error.
 */

#include "lint.hh"

#include "sarif.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

int
usage(std::ostream &out, int code)
{
    out << "usage: eval_lint [--root DIR] [--exclude SUBSTR]...\n"
           "                 [--layers FILE] [--json FILE] [--sarif FILE]\n"
           "                 [--list-rules] [PATH...]\n"
           "\n"
           "Lints .cc/.cpp/.hh/.h files under each PATH (relative to\n"
           "--root; default: src bench tests examples tools) against\n"
           "the repo's determinism/numerics/hygiene rules and the\n"
           "project-wide semantic passes (layering contracts from\n"
           "tools/lint/layers.toml, include cycles, exception\n"
           "contracts, atomics audit, determinism data-flow).\n"
           "\n"
           "  --layers FILE       layering manifest (default:\n"
           "                      <root>/tools/lint/layers.toml, then\n"
           "                      <root>/layers.toml)\n"
           "  --json FILE         findings as JSON (CI artifact)\n"
           "  --sarif FILE        findings as SARIF 2.1.0\n"
           "\n"
           "Exit: 0 clean, 1 findings, 2 usage or I/O error.\n";
    return code;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << content;
    return out.good();
}

} // namespace

int
main(int argc, char **argv)
{
    eval::lint::Options opts;
    opts.root = ".";
    std::string jsonPath;
    std::string sarifPath;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "eval-lint: " << flag
                          << " requires an argument\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (arg == "--list-rules") {
            for (const auto &r : eval::lint::ruleCatalog())
                std::cout << r.id << "\n    " << r.summary << "\n";
            return 0;
        } else if (arg == "--root") {
            const char *v = value("--root");
            if (!v)
                return 2;
            opts.root = v;
        } else if (arg == "--exclude") {
            const char *v = value("--exclude");
            if (!v)
                return 2;
            opts.excludes.push_back(v);
        } else if (arg == "--layers") {
            const char *v = value("--layers");
            if (!v)
                return 2;
            opts.layersFile = v;
        } else if (arg == "--json") {
            const char *v = value("--json");
            if (!v)
                return 2;
            jsonPath = v;
        } else if (arg == "--sarif") {
            const char *v = value("--sarif");
            if (!v)
                return 2;
            sarifPath = v;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "eval-lint: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        } else {
            opts.paths.push_back(arg);
        }
    }

    std::string error;
    const auto diags = eval::lint::runLint(opts, &error);
    if (!error.empty()) {
        std::cerr << "eval-lint: " << error << '\n';
        return 2;
    }

    for (const auto &d : diags)
        std::cout << eval::lint::formatDiagnostic(d) << '\n';

    if (!jsonPath.empty() &&
        !writeFile(jsonPath, eval::lint::toJson(diags))) {
        std::cerr << "eval-lint: cannot write " << jsonPath << '\n';
        return 2;
    }
    if (!sarifPath.empty()) {
        std::error_code ec;
        const auto canon =
            std::filesystem::weakly_canonical(opts.root, ec);
        const std::string rootUri =
            ec ? "" : "file://" + canon.generic_string() + "/";
        if (!writeFile(sarifPath, eval::lint::toSarif(diags, rootUri))) {
            std::cerr << "eval-lint: cannot write " << sarifPath << '\n';
            return 2;
        }
    }

    if (diags.empty()) {
        std::cout << "eval-lint: clean\n";
    } else {
        std::cout << "eval-lint: " << diags.size() << " finding"
                  << (diags.size() == 1 ? "" : "s") << '\n';
    }
    return eval::lint::exitCodeFor(diags);
}
