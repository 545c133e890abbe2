#include "shard/campaign.hh"

#include "util/logging.hh"
#include "valid/snapshot.hh"

namespace eval {

namespace {

/** Chip-binning histogram layout: 20 bins over [0, 1]; a perfect 1.0
 *  good-share clamps into the top bin by the Histogram edge rule. */
constexpr double kHistLo = 0.0;
constexpr double kHistHi = 1.0;
constexpr std::size_t kHistBins = 20;

const char *
outcomeKey(std::size_t outcome)
{
    return retuneOutcomeName(static_cast<RetuneOutcome>(outcome));
}

} // namespace

std::string
CampaignConfig::fingerprint() const
{
    return experiment.fingerprint() +
           ";scheme=" + adaptSchemeName(scheme) + ";campaign=fig13";
}

std::uint64_t
ChipCampaignResult::invocations() const
{
    std::uint64_t n = 0;
    for (const OutcomeTally &env : outcomes)
        n += invocationCount(env);
    return n;
}

double
ChipCampaignResult::goodShare() const
{
    const std::uint64_t total = invocations();
    if (total == 0)
        return 1.0;
    std::uint64_t good = 0;
    for (const auto &env : outcomes)
        good += env[static_cast<std::size_t>(RetuneOutcome::NoChange)];
    return static_cast<double>(good) / static_cast<double>(total);
}

ChipCampaignResult
runCampaignChip(ExperimentContext &ctx, const CampaignConfig &campaign,
                std::size_t chip)
{
    ChipCampaignResult result;
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e)
        result.outcomes[e] = ctx.adaptApps(
            chip, fig13Caps(fig13VoltageEnvs()[e]), campaign.scheme);
    return result;
}

CampaignAccumulator::CampaignAccumulator(std::uint64_t firstChip)
    : firstChip_(firstChip), nextChip_(firstChip),
      hist_(kHistLo, kHistHi, kHistBins)
{
}

void
CampaignAccumulator::addChip(std::uint64_t chipId,
                             const ChipCampaignResult &r)
{
    EVAL_ASSERT(chipId == nextChip_,
                "accumulator must be fed chips in id order");
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e)
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
            outcomes_[e][o] += r.outcomes[e][o];
    const double share = r.goodShare();
    hist_.add(share, 1.0);
    shares_.add(share);
    ++nextChip_;
}

std::uint64_t
CampaignAccumulator::outcomeCount(std::size_t env,
                                  RetuneOutcome outcome) const
{
    return outcomes_[env][static_cast<std::size_t>(outcome)];
}

std::uint64_t
CampaignAccumulator::envInvocations(std::size_t env) const
{
    return invocationCount(outcomes_[env]);
}

JsonValue
CampaignAccumulator::toPayload() const
{
    JsonValue payload = JsonValue::object();
    payload.set("first_chip", firstChip_);
    payload.set("next_chip", nextChip_);

    JsonValue envs = JsonValue::array();
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        JsonValue env = JsonValue::object();
        env.set("tag", fig13VoltageEnvs()[e].tag);
        JsonValue counts = JsonValue::object();
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
            counts.set(outcomeKey(o), outcomes_[e][o]);
        env.set("outcomes", std::move(counts));
        envs.push(std::move(env));
    }
    payload.set("envs", std::move(envs));

    // The histogram is derived state: it rebuilds exactly from the
    // ordered per-chip shares (weight-1 adds), so the payload stays
    // minimal and cannot go out of sync with its source samples.
    JsonValue shares = JsonValue::array();
    for (double s : shares_.samples())
        shares.push(s);
    payload.set("good_shares", std::move(shares));
    return payload;
}

CampaignAccumulator
CampaignAccumulator::fromPayload(const JsonValue &payload)
{
    for (const char *key : {"first_chip", "next_chip", "envs",
                            "good_shares"}) {
        if (!payload.has(key))
            throw SnapshotError(
                std::string("campaign accumulator payload missing '") +
                key + "'");
    }
    CampaignAccumulator acc(payload.at("first_chip").asUint());
    const std::uint64_t next = payload.at("next_chip").asUint();
    if (next < acc.firstChip_)
        throw SnapshotError("campaign accumulator range is inverted");

    const auto &envs = payload.at("envs").asArray();
    if (envs.size() != kNumVoltageEnvs)
        throw SnapshotError("campaign accumulator env count mismatch");
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        const JsonValue &env = envs[e];
        if (!env.has("tag") ||
            env.at("tag").asString() != fig13VoltageEnvs()[e].tag)
            throw SnapshotError("campaign accumulator env tag mismatch");
        const JsonValue &counts = env.at("outcomes");
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
            acc.outcomes_[e][o] = counts.at(outcomeKey(o)).asUint();
    }

    const auto &shares = payload.at("good_shares").asArray();
    if (shares.size() != next - acc.firstChip_)
        throw SnapshotError(
            "campaign accumulator sample count disagrees with its "
            "chip range");
    for (const JsonValue &s : shares) {
        acc.shares_.add(s.asDouble());
        acc.hist_.add(s.asDouble(), 1.0);
    }
    acc.nextChip_ = next;
    return acc;
}

JsonValue
CampaignAccumulator::toSnapshot() const
{
    return makeSnapshot("shard_result", 1, toPayload());
}

CampaignAccumulator
CampaignAccumulator::fromSnapshot(const JsonValue &snapshot)
{
    return fromPayload(snapshotPayload(snapshot, "shard_result", 1));
}

std::string
CampaignAccumulator::statsJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("kind", "fig13_campaign_stats");
    doc.set("first_chip", firstChip_);
    doc.set("chips", chipCount());

    JsonValue envs = JsonValue::array();
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        JsonValue env = JsonValue::object();
        env.set("tag", fig13VoltageEnvs()[e].tag);
        const std::uint64_t total = envInvocations(e);
        env.set("invocations", total);
        JsonValue counts = JsonValue::object();
        JsonValue sharesObj = JsonValue::object();
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o) {
            const std::uint64_t n = outcomes_[e][o];
            counts.set(outcomeKey(o), n);
            sharesObj.set(outcomeKey(o),
                          total ? static_cast<double>(n) /
                                      static_cast<double>(total)
                                : 0.0);
        }
        env.set("outcomes", std::move(counts));
        env.set("outcome_shares", std::move(sharesObj));
        envs.push(std::move(env));
    }
    doc.set("envs", std::move(envs));

    JsonValue good = JsonValue::object();
    good.set("mean", shares_.mean());
    good.set("p50", shares_.percentile(0.50));
    good.set("p90", shares_.percentile(0.90));
    good.set("p99", shares_.percentile(0.99));
    doc.set("good_share", std::move(good));

    JsonValue binning = JsonValue::object();
    binning.set("lo", hist_.lo());
    binning.set("hi", hist_.hi());
    JsonValue bins = JsonValue::array();
    for (std::size_t i = 0; i < hist_.bins(); ++i)
        bins.push(hist_.count(i));
    binning.set("counts", std::move(bins));
    doc.set("chip_binning", std::move(binning));

    return doc.dump(2) + "\n";
}

double
CampaignAccumulator::digest() const
{
    return digest53(encodeBinary(toSnapshot()));
}

} // namespace eval
