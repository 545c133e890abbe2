#include "eval_prof.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "valid/snapshot.hh"

namespace eval::prof {

namespace {

/** Whole-file slurp; false when the file cannot be opened. */
bool
readFileText(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

/** The path minus its leaf segment ("" for a root span). */
std::string
parentOf(const std::string &path)
{
    const std::size_t cut = path.rfind(';');
    return cut == std::string::npos ? std::string()
                                    : path.substr(0, cut);
}

/** Top-down trie over bucket paths.  A node may have no bucket of
 *  its own (its span never closed before export); it still renders,
 *  with dashes, so the chain stays visible. */
struct TreeNode
{
    const ProfileBucket *bucket = nullptr;
    std::map<std::string, TreeNode> children;

    std::uint64_t
    sortKeyInclNs() const
    {
        if (bucket)
            return bucket->inclNs;
        std::uint64_t sum = 0;
        for (const auto &[seg, child] : children)
            sum += child.sortKeyInclNs();
        return sum;
    }
};

void
insertPath(TreeNode &root, const ProfileBucket &bucket)
{
    TreeNode *node = &root;
    std::size_t begin = 0;
    while (begin <= bucket.path.size()) {
        std::size_t end = bucket.path.find(';', begin);
        if (end == std::string::npos)
            end = bucket.path.size();
        node = &node->children[bucket.path.substr(begin, end - begin)];
        begin = end + 1;
    }
    node->bucket = &bucket;
}

struct LineBudget
{
    int remaining; ///< negative = unlimited
    int skipped = 0;

    bool
    take()
    {
        if (remaining < 0)
            return true;
        if (remaining == 0) {
            ++skipped;
            return false;
        }
        --remaining;
        return true;
    }
};

void
renderNode(std::string &out, const std::string &seg,
           const TreeNode &node, int depth, LineBudget &budget)
{
    if (budget.take()) {
        char buf[160];
        const std::string indent(static_cast<std::size_t>(depth) * 2,
                                 ' ');
        if (node.bucket) {
            std::snprintf(
                buf, sizeof buf,
                "%-48s incl %9s  self %9s  x%llu\n",
                (indent + seg).c_str(),
                formatNs(node.bucket->inclNs).c_str(),
                formatNs(node.bucket->selfNs).c_str(),
                static_cast<unsigned long long>(node.bucket->count));
        } else {
            std::snprintf(buf, sizeof buf,
                          "%-48s incl %9s  self %9s  (open)\n",
                          (indent + seg).c_str(), "-", "-");
        }
        out += buf;
    } else {
        return; // budget exhausted: count this subtree as skipped
    }
    std::vector<const std::pair<const std::string, TreeNode> *> kids;
    for (const auto &child : node.children)
        kids.push_back(&child);
    std::stable_sort(kids.begin(), kids.end(),
                     [](const auto *a, const auto *b) {
                         return a->second.sortKeyInclNs() >
                                b->second.sortKeyInclNs();
                     });
    for (const auto *child : kids)
        renderNode(out, child->first, child->second, depth + 1, budget);
}

std::string
renderTopDown(const SpanProfile &profile, int topN)
{
    TreeNode root;
    for (const auto &[path, bucket] : profile)
        insertPath(root, bucket);

    std::string out;
    LineBudget budget{topN > 0 ? topN : -1};
    std::vector<const std::pair<const std::string, TreeNode> *> roots;
    for (const auto &child : root.children)
        roots.push_back(&child);
    std::stable_sort(roots.begin(), roots.end(),
                     [](const auto *a, const auto *b) {
                         return a->second.sortKeyInclNs() >
                                b->second.sortKeyInclNs();
                     });
    for (const auto *child : roots)
        renderNode(out, child->first, child->second, 0, budget);
    if (budget.skipped > 0)
        out += "... (" + std::to_string(budget.skipped) + " more)\n";
    return out;
}

std::string
renderBottomUp(const SpanProfile &profile, int topN)
{
    // Leaf-centric: rank names by total self time, then list every
    // call path that produced the name, hottest first.
    struct Leaf
    {
        std::uint64_t selfNs = 0;
        std::uint64_t count = 0;
        std::vector<const ProfileBucket *> sites;
    };
    std::map<std::string, Leaf> leaves;
    for (const auto &[path, bucket] : profile) {
        Leaf &leaf = leaves[bucket.name];
        leaf.selfNs += bucket.selfNs;
        leaf.count += bucket.count;
        leaf.sites.push_back(&bucket);
    }
    std::vector<std::pair<std::string, const Leaf *>> order;
    for (const auto &[name, leaf] : leaves)
        order.emplace_back(name, &leaf);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.second->selfNs > b.second->selfNs;
                     });

    std::string out;
    LineBudget budget{topN > 0 ? topN : -1};
    char buf[160];
    for (const auto &[name, leaf] : order) {
        if (!budget.take())
            break;
        std::snprintf(buf, sizeof buf, "%-48s self %9s  x%llu\n",
                      name.c_str(), formatNs(leaf->selfNs).c_str(),
                      static_cast<unsigned long long>(leaf->count));
        out += buf;
        std::vector<const ProfileBucket *> sites = leaf->sites;
        std::stable_sort(sites.begin(), sites.end(),
                         [](const ProfileBucket *a,
                            const ProfileBucket *b) {
                             return a->selfNs > b->selfNs;
                         });
        for (const ProfileBucket *site : sites) {
            if (!budget.take())
                break;
            const std::string parent = parentOf(site->path);
            std::snprintf(
                buf, sizeof buf, "  %-46s self %9s  x%llu\n",
                (parent.empty() ? std::string("(root)")
                                : "from " + parent)
                    .c_str(),
                formatNs(site->selfNs).c_str(),
                static_cast<unsigned long long>(site->count));
            out += buf;
        }
    }
    if (budget.skipped > 0)
        out += "... (" + std::to_string(budget.skipped) + " more)\n";
    return out;
}

/** Load + parse a profile, reporting errors on stderr.  False on
 *  failure (caller exits 2). */
bool
loadProfile(const std::string &path, SpanProfile &out)
{
    std::string text;
    if (!readFileText(path, text)) {
        std::fprintf(stderr, "eval_prof: cannot read %s\n",
                     path.c_str());
        return false;
    }
    try {
        out = parseProfileJson(text);
    } catch (const SnapshotError &e) {
        std::fprintf(stderr, "eval_prof: %s: %s\n", path.c_str(),
                     e.what());
        return false;
    }
    return true;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: eval_prof tree PROFILE [--bottom-up] [--top=N]\n"
        "       eval_prof flame PROFILE [--out=FILE]\n"
        "       eval_prof diff OLD NEW [--top=N]\n");
    return 2;
}

} // namespace

std::string
formatNs(std::uint64_t ns)
{
    char buf[32];
    if (ns >= 1000000000ull)
        std::snprintf(buf, sizeof buf, "%.3fs",
                      static_cast<double>(ns) / 1e9);
    else if (ns >= 1000000ull)
        std::snprintf(buf, sizeof buf, "%.1fms",
                      static_cast<double>(ns) / 1e6);
    else if (ns >= 1000ull)
        std::snprintf(buf, sizeof buf, "%.1fus",
                      static_cast<double>(ns) / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%lluns",
                      static_cast<unsigned long long>(ns));
    return buf;
}

std::string
renderTree(const SpanProfile &profile, bool bottomUp, int topN)
{
    return bottomUp ? renderBottomUp(profile, topN)
                    : renderTopDown(profile, topN);
}

std::string
collapsedStacks(const SpanProfile &profile)
{
    std::string out;
    for (const auto &[path, bucket] : profile) {
        const std::uint64_t selfUs = (bucket.selfNs + 500) / 1000;
        if (selfUs == 0)
            continue;
        out += path + " " + std::to_string(selfUs) + "\n";
    }
    return out;
}

std::vector<DiffRow>
diffProfiles(const SpanProfile &oldProfile,
             const SpanProfile &newProfile)
{
    std::map<std::string, DiffRow> rows;
    for (const auto &[path, bucket] : oldProfile) {
        DiffRow &row = rows[path];
        row.path = path;
        row.name = bucket.name;
        row.oldSelfNs = bucket.selfNs;
        row.oldCount = bucket.count;
    }
    for (const auto &[path, bucket] : newProfile) {
        DiffRow &row = rows[path];
        row.path = path;
        row.name = bucket.name;
        row.newSelfNs = bucket.selfNs;
        row.newCount = bucket.count;
    }
    std::vector<DiffRow> out;
    out.reserve(rows.size());
    for (auto &[path, row] : rows) {
        row.deltaSelfNs = static_cast<std::int64_t>(row.newSelfNs) -
                          static_cast<std::int64_t>(row.oldSelfNs);
        out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end(),
              [](const DiffRow &a, const DiffRow &b) {
                  const std::int64_t ma = std::llabs(a.deltaSelfNs);
                  const std::int64_t mb = std::llabs(b.deltaSelfNs);
                  if (ma != mb)
                      return ma > mb;
                  return a.path < b.path;
              });
    return out;
}

std::string
renderDiff(const std::vector<DiffRow> &rows, int topN)
{
    std::string out =
        "span (path)                                      "
        "old self   new self      delta  counts\n";
    char buf[200];
    int printed = 0;
    for (const DiffRow &row : rows) {
        if (topN > 0 && printed >= topN) {
            out += "... (" +
                   std::to_string(rows.size() -
                                  static_cast<std::size_t>(printed)) +
                   " more)\n";
            break;
        }
        ++printed;
        const char sign = row.deltaSelfNs < 0 ? '-' : '+';
        const auto mag = static_cast<std::uint64_t>(
            std::llabs(row.deltaSelfNs));
        std::string pct;
        if (row.oldSelfNs > 0) {
            char pbuf[32];
            std::snprintf(pbuf, sizeof pbuf, " (%c%.1f%%)", sign,
                          100.0 *
                              static_cast<double>(mag) /
                              static_cast<double>(row.oldSelfNs));
            pct = pbuf;
        } else if (row.deltaSelfNs != 0) {
            pct = " (new)";
        }
        std::snprintf(
            buf, sizeof buf,
            "%-48s %9s  %9s  %c%8s%s  x%llu -> x%llu\n",
            row.path.c_str(), formatNs(row.oldSelfNs).c_str(),
            formatNs(row.newSelfNs).c_str(), sign,
            formatNs(mag).c_str(), pct.c_str(),
            static_cast<unsigned long long>(row.oldCount),
            static_cast<unsigned long long>(row.newCount));
        out += buf;
    }
    return out;
}

int
runEvalProf(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const std::string &cmd = args[0];

    std::vector<std::string> positional;
    bool bottomUp = false;
    int topN = 0;
    std::string outFile;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--bottom-up") {
            bottomUp = true;
        } else if (a.rfind("--top=", 0) == 0) {
            topN = std::atoi(a.c_str() + 6);
        } else if (a.rfind("--out=", 0) == 0) {
            outFile = a.substr(6);
        } else if (a.rfind("--", 0) == 0) {
            std::fprintf(stderr, "eval_prof: unknown option %s\n",
                         a.c_str());
            return usage();
        } else {
            positional.push_back(a);
        }
    }

    if (cmd == "tree") {
        if (positional.size() != 1)
            return usage();
        SpanProfile profile;
        if (!loadProfile(positional[0], profile))
            return 2;
        std::fputs(renderTree(profile, bottomUp, topN).c_str(),
                   stdout);
        return 0;
    }
    if (cmd == "flame") {
        if (positional.size() != 1)
            return usage();
        SpanProfile profile;
        if (!loadProfile(positional[0], profile))
            return 2;
        const std::string lines = collapsedStacks(profile);
        if (outFile.empty()) {
            std::fputs(lines.c_str(), stdout);
        } else {
            std::ofstream out(outFile, std::ios::binary);
            if (!out || !(out << lines)) {
                std::fprintf(stderr,
                             "eval_prof: cannot write %s\n",
                             outFile.c_str());
                return 2;
            }
        }
        return 0;
    }
    if (cmd == "diff") {
        if (positional.size() != 2)
            return usage();
        SpanProfile oldProfile;
        SpanProfile newProfile;
        if (!loadProfile(positional[0], oldProfile) ||
            !loadProfile(positional[1], newProfile))
            return 2;
        const std::vector<DiffRow> rows =
            diffProfiles(oldProfile, newProfile);
        std::fputs(renderDiff(rows, topN > 0 ? topN : 20).c_str(),
                   stdout);
        return 0;
    }
    return usage();
}

} // namespace eval::prof
