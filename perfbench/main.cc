/**
 * @file
 * perfbench: the Fig 13 campaign benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads (all the FU+Queue Fig 13 campaign over the pinned 24-app
 * suite, library defaults):
 *   fig13-fuzzy         FuzzyDyn, 4 pool threads
 *   fig13-exhaustive    ExhDyn, 4 pool threads
 *   fig13-fuzzy-serial  FuzzyDyn, 1 thread
 *
 * Each run is a batch of a fixed chip count, sized from --seconds and
 * the workload's nominal throughput so that the campaign phase lasts
 * about S seconds on a 4-core host.  --trace 0 reports the end-to-end
 * metrics; --trace 1 runs the campaign untraced and then traced on the
 * same chips and reports the per-layer ledger.  The last stdout line
 * is one JSON object {correct, attempted, failed, metrics}.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign_driver.hh"
#include "exec/thread_pool.hh"
#include "stats/stat_registry.hh"
#include "trace/manifest.hh"
#include "util/logging.hh"
#include "valid/json_value.hh"

using namespace eval;
using namespace perfbench;

namespace {

struct Workload
{
    const char *name;
    AdaptScheme scheme;
    std::size_t threads;
    /** Nominal campaign throughput on a 4-core host; sizes the batch. */
    double chipsPerS;
};

constexpr Workload kWorkloads[] = {
    {"fig13-fuzzy", AdaptScheme::FuzzyDyn, 4, 2.2},
    {"fig13-exhaustive", AdaptScheme::ExhDyn, 4, 30.0},
    {"fig13-fuzzy-serial", AdaptScheme::FuzzyDyn, 1, 1.0},
};

/** Cold starts per untraced run; setup_s is their median.  Two keep
 *  the 1-thread workload's run (two ~10 s characterizations) inside
 *  the benchmark's time budget. */
constexpr int kSetups = 2;

/** Settings that change the program's numerics or workload. */
constexpr const char *kPinnedEnv[] = {
    "EVAL_PE_TABLE", "EVAL_PE_CACHE", "EVAL_THERMAL_CACHE", "EVAL_APPS",
    "EVAL_FAST", "EVAL_SIM_INSTS", "EVAL_FC_EXAMPLES",
};

/** Work counters read from StatRegistry::global(); all but the two
 *  memo-hit counters are exact and schedule-independent. */
constexpr const char *kCounters[] = {
    "optimizer.freq_queries", "optimizer.power_queries",
    "optimizer.choose_calls", "controller.adaptations",
    "controller.retune_steps", "fuzzy.trainings",
    "timing.error_evals",     "thermal.solves",
    "timing.error_cache_hits", "thermal.cache_hits",
};
constexpr std::size_t kExactCounters = 8;

using Counts = std::map<std::string, double>;

Counts
readCounters()
{
    Counts c;
    for (const char *name : kCounters)
        c[name] = static_cast<double>(
            StatRegistry::global().counter(name).value());
    return c;
}

Counts
operator-(Counts a, const Counts &b)
{
    for (auto &[k, v] : a)
        v -= b.at(k);
    return a;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least q of the mass
    // at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Ordered metric list: name -> (value, unit). */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        items_.emplace_back(name, std::make_pair(value, unit));
    }

    void
    print() const
    {
        for (const auto &[name, vu] : items_)
            std::printf("metric %-32s %.6g %s\n", name.c_str(),
                        vu.first, vu.second);
    }

    JsonValue
    json() const
    {
        JsonValue obj = JsonValue::object();
        for (const auto &[name, vu] : items_) {
            JsonValue m = JsonValue::object();
            m.set("value", vu.first);
            m.set("unit", vu.second);
            obj.set(name, std::move(m));
        }
        return obj;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, const char *>>>
        items_;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

void
printTallies(const char *label, const CampaignAccumulator &acc)
{
    std::printf("%s digest %.0f chips %llu\n", label, acc.digest(),
                static_cast<unsigned long long>(acc.chipCount()));
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        std::printf("%s env %-13s", label, fig13VoltageEnvs()[e].tag);
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o) {
            const auto outcome = static_cast<RetuneOutcome>(o);
            std::printf(" %s=%llu", retuneOutcomeName(outcome),
                        static_cast<unsigned long long>(
                            acc.outcomeCount(e, outcome)));
        }
        std::printf("\n");
    }
}

/** Structural checks every pass must pass; prints what failed. */
bool
checkPass(const char *label, const CampaignRun &run,
          std::uint64_t expectedPerChip)
{
    bool ok = run.failed == 0;
    if (!ok)
        std::printf("FAIL %s: %llu chips failed\n", label,
                    static_cast<unsigned long long>(run.failed));
    for (std::size_t i = 0; i < run.chips.size(); ++i) {
        if (run.chips[i].invocations() != expectedPerChip) {
            std::printf("FAIL %s: chip %zu made %llu invocations, "
                        "expected %llu\n",
                        label, i,
                        static_cast<unsigned long long>(
                            run.chips[i].invocations()),
                        static_cast<unsigned long long>(expectedPerChip));
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            return usage(("bad argument '" + key + "'").c_str());
        args[key.substr(2)] = argv[++i];
    }
    for (const char *need : {"workload", "seed", "seconds", "trace"})
        if (!args.count(need))
            return usage((std::string("missing --") + need).c_str());
    if (args.size() != 4)
        return usage("unknown option");

    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (args["workload"] == w.name)
            wl = &w;
    if (!wl)
        return usage(("unknown workload '" + args["workload"] + "'").c_str());
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
    if (*end != '\0')
        return usage("--seed must be a whole number");
    const double seconds = std::strtod(args["seconds"].c_str(), &end);
    if (*end != '\0' || !(seconds > 0.0) || seconds > 600.0)
        return usage("--seconds must be in (0, 600]");
    if (args["trace"] != "0" && args["trace"] != "1")
        return usage("--trace must be 0 or 1");
    const bool traced = args["trace"] == "1";

    for (const char *name : kPinnedEnv) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "perfbench: %s is set; the benchmark measures "
                         "the default exact-mode program only\n",
                         name);
            return 2;
        }
    }
    setMinLogLevel(LogLevel::Warn);

    // Fixed chip count per pass for this (workload, seconds): a traced
    // run makes two passes (untraced, traced) of half the length each.
    // Pooled workloads run whole blocks so no block barrier waits on a
    // partial block.
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t threads = std::min(wl->threads, hw);
    const double passS = traced ? seconds / 2.0 : seconds;
    std::size_t chips = 0;
    if (wl->threads > 1)
        chips = kBlock * static_cast<std::size_t>(std::max(
                             1.0, std::round(wl->chipsPerS * passS /
                                             static_cast<double>(kBlock))));
    else
        chips = static_cast<std::size_t>(
            std::max(1.0, std::round(wl->chipsPerS * passS)));

    CampaignConfig campaign;
    campaign.experiment = makeConfig(seed, static_cast<int>(chips));
    campaign.scheme = wl->scheme;
    setGlobalThreads(threads);

    JsonValue prov = JsonValue::object();
    prov.set("workload", wl->name);
    prov.set("trace", traced);
    prov.set("seed", seed);
    prov.set("seconds", seconds);
    prov.set("chips", static_cast<std::uint64_t>(chips));
    prov.set("threads", static_cast<std::uint64_t>(threads));
    prov.set("online_cpus",
             static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    prov.set("git_sha", buildGitSha());
    prov.set("fingerprint", campaign.fingerprint());

    Metrics metrics;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    if (!traced) {
        std::vector<double> setupS;
        std::unique_ptr<ExperimentContext> ctx;
        for (int i = 0; i < kSetups; ++i) {
            ctx.reset();
            const double t0 = nowSeconds();
            ctx = setUp(campaign.experiment, nullptr);
            setupS.push_back(nowSeconds() - t0);
        }
        const std::uint64_t expected = expectedInvocations(*ctx);

        const CampaignRun run = runCampaign(*ctx, campaign, chips);
        attempted = chips;
        failed = run.failed;
        printTallies("campaign", run.acc);
        correct = checkPass("campaign", run, expected);

        // Re-run one seed-chosen chip alone on this thread: the pooled
        // result must not depend on scheduling.
        const std::size_t probe = seed % chips;
        const ChipCampaignResult alone =
            runCampaignChip(*ctx, campaign, probe);
        ctx->evictChip(probe);
        if (alone.outcomes != run.chips[probe].outcomes) {
            std::printf("FAIL chip %zu differs when re-run alone\n", probe);
            correct = false;
        }

        metrics.add("chips_per_s", static_cast<double>(chips) / run.wallS,
                    "chips/s");
        metrics.add("setup_s", quantile(setupS, 0.5), "s");
        metrics.add("cpu_s_per_chip",
                    run.cpuS / static_cast<double>(chips), "CPU-s/chip");
        metrics.add("peak_rss_mb",
                    static_cast<double>(peakRssKb()) / 1024.0, "MB");
        std::printf("campaign good_share_min %.6f\n", goodShareMin(run.acc));
        prov.set("setup_samples", static_cast<std::uint64_t>(kSetups));
    } else {
        // Untraced reference pass, then the traced pass over the same
        // chips.  Evicted chips are remanufactured with fresh PE memo
        // ids; thermal memo entries of the first pass are long
        // overwritten by the time the second pass reaches a chip.
        std::vector<double> appS;
        auto ctx = setUp(campaign.experiment, &appS);
        const std::uint64_t expected = expectedInvocations(*ctx);
        const Counts c0 = readCounters();
        const CampaignRun plain = runCampaign(*ctx, campaign, chips);
        const Counts c1 = readCounters();
        const CampaignRun run = runTracedCampaign(*ctx, campaign, chips);
        const Counts plainCounts = c1 - c0;
        const Counts k = readCounters() - c1;

        attempted = 2 * chips;
        failed = plain.failed + run.failed;
        printTallies("untraced", plain.acc);
        printTallies("traced", run.acc);
        const bool plainOk = checkPass("untraced", plain, expected);
        const bool tracedOk = checkPass("traced", run, expected);
        correct = plainOk && tracedOk;
        if (plain.acc.digest() != run.acc.digest()) {
            std::printf("FAIL traced digest differs from untraced\n");
            correct = false;
        }
        for (std::size_t i = 0; i < kExactCounters; ++i) {
            if (plainCounts.at(kCounters[i]) != k.at(kCounters[i])) {
                std::printf("FAIL counter %s: untraced %.0f traced %.0f\n",
                            kCounters[i], plainCounts.at(kCounters[i]),
                            k.at(kCounters[i]));
                correct = false;
            }
        }

        std::vector<double> manufacture, build, train, invoke;
        double taskS = 0.0;
        for (const ChipLedger &l : run.ledgers) {
            manufacture.push_back(l.manufactureS);
            build.insert(build.end(), l.modelBuildS.begin(),
                         l.modelBuildS.end());
            train.insert(train.end(), l.trainS.begin(), l.trainS.end());
            invoke.insert(invoke.end(), l.invokeS.begin(),
                          l.invokeS.end());
            taskS += l.taskS;
        }
        const double accounted =
            sum(manufacture) + sum(build) + sum(train) + sum(invoke);

        // Per app phase: two queue configurations x two Core::run (warm,
        // measure); a chip makes one invocation per phase and env.
        const double coreRuns =
            static_cast<double>(expected / kNumVoltageEnvs) * 4.0;
        const double queries = k.at("optimizer.freq_queries") +
                               k.at("optimizer.power_queries");

        metrics.add("variation.manufacture_ms_p50",
                    quantile(manufacture, 0.5) * 1e3, "ms");
        metrics.add("timing.model_build_ms_p50",
                    quantile(build, 0.5) * 1e3, "ms");
        metrics.add("characterize.app_s_p50", quantile(appS, 0.5), "s");
        metrics.add("characterize.app_s_max", quantile(appS, 1.0), "s");
        metrics.add("characterize.ns_per_sim_inst",
                    sum(appS) * 1e9 /
                        (coreRuns *
                         static_cast<double>(campaign.experiment.simInsts)),
                    "ns");
        metrics.add("characterize.core_runs", coreRuns, "count");
        metrics.add("fuzzy.train_ms_p50", quantile(train, 0.5) * 1e3, "ms");
        metrics.add("fuzzy.trainings", k.at("fuzzy.trainings"), "count");
        metrics.add("optimizer.freq_queries",
                    k.at("optimizer.freq_queries"), "count");
        metrics.add("optimizer.power_queries",
                    k.at("optimizer.power_queries"), "count");
        metrics.add("optimizer.choose_calls",
                    k.at("optimizer.choose_calls"), "count");
        metrics.add("optimizer.us_per_query",
                    queries > 0 ? (sum(train) + sum(invoke)) * 1e6 / queries
                                : 0.0,
                    "us");
        metrics.add("controller.invoke_us_p50",
                    quantile(invoke, 0.5) * 1e6, "us");
        metrics.add("controller.invoke_us_p99",
                    quantile(invoke, 0.99) * 1e6, "us");
        metrics.add("controller.invoke_samples",
                    static_cast<double>(invoke.size()), "count");
        metrics.add("controller.adaptations",
                    k.at("controller.adaptations"), "count");
        metrics.add("controller.retune_steps",
                    k.at("controller.retune_steps"), "count");
        metrics.add("controller.good_share_min", goodShareMin(run.acc),
                    "fraction");
        metrics.add("timing.pe_evals", k.at("timing.error_evals"), "count");
        metrics.add("timing.pe_memo_hit_ratio",
                    k.at("timing.error_evals") > 0
                        ? k.at("timing.error_cache_hits") /
                              k.at("timing.error_evals")
                        : 0.0,
                    "fraction");
        metrics.add("thermal.solves", k.at("thermal.solves"), "count");
        metrics.add("thermal.memo_hit_ratio",
                    k.at("thermal.solves") > 0
                        ? k.at("thermal.cache_hits") /
                              k.at("thermal.solves")
                        : 0.0,
                    "fraction");
        metrics.add("exec.busy_share",
                    taskS / (static_cast<double>(threads) * run.wallS),
                    "fraction");
        metrics.add("trace.overhead_share", 1.0 - plain.wallS / run.wallS,
                    "fraction");
        metrics.add("unaccounted_share",
                    taskS > 0 ? (taskS - accounted) / taskS : 0.0,
                    "fraction");

        prov.set("characterize_samples",
                 static_cast<std::uint64_t>(appS.size()));
        prov.set("manufacture_samples",
                 static_cast<std::uint64_t>(manufacture.size()));
        prov.set("model_build_samples",
                 static_cast<std::uint64_t>(build.size()));
        prov.set("train_samples", static_cast<std::uint64_t>(train.size()));
        prov.set("invoke_samples",
                 static_cast<std::uint64_t>(invoke.size()));
    }

    std::printf("provenance %s\n", prov.dump().c_str());
    metrics.print();

    JsonValue result = JsonValue::object();
    result.set("correct", correct);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", metrics.json());
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
}
