#include "core/characterization.hh"

#include "arch/core.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

double
AppCharacterization::totalWeight() const
{
    double w = 0.0;
    for (const auto &p : phases)
        w += p.weight;
    return w;
}

CharacterizationCache::CharacterizationCache(const RecoveryModel &recovery,
                                             double refFreqHz,
                                             std::uint64_t seed,
                                             std::uint64_t simInsts)
    : recovery_(recovery), refFreqHz_(refFreqHz), seed_(seed),
      simInsts_(simInsts)
{
    EVAL_ASSERT(simInsts > 1000, "characterization needs a real sample");
}

const AppCharacterization &
CharacterizationCache::get(const AppProfile &profile)
{
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unique_ptr<Entry> &slot = cache_[profile.name];
        if (!slot)
            slot = std::make_unique<Entry>();
        entry = slot.get();
    }
    // Characterize outside the map lock so distinct apps proceed in
    // parallel; call_once makes concurrent requests for the *same*
    // app wait for one characterization instead of duplicating it.
    std::call_once(entry->once, [this, entry, &profile] {
        entry->chr = characterize(profile);
    });
    return entry->chr;
}

AppCharacterization
CharacterizationCache::characterize(const AppProfile &profile)
{
    ScopedSpan span("characterize.app");
    AppCharacterization app;
    app.name = profile.name;
    app.isFp = profile.isFp;

    SyntheticTrace probe(profile, seed_);
    const std::size_t numPhases = probe.numPhases();
    const std::vector<PhaseSpec> &script =
        profile.phases.empty() ? std::vector<PhaseSpec>{PhaseSpec{}}
                               : profile.phases;

    for (std::size_t p = 0; p < numPhases; ++p) {
        PhaseData data;
        data.weight = script[p].weight;
        data.chr.isFp = profile.isFp;

        CoreStats fullStats;
        static constexpr double kQueueFracs[] = {1.0, 0.75};
        for (std::size_t qi = 0; qi < 2; ++qi) {
            const bool fullQueues = qi == 0;
            CoreConfig cfg;
            cfg.queueCapacityFraction = kQueueFracs[qi];

            SyntheticTrace trace(profile, seed_ ^ (p * 7919));
            trace.pinPhase(p);
            Core core(cfg, seed_ ^ 0xC0DE ^ p);
            // Warm caches and predictors, then measure.
            core.run(trace, simInsts_);
            const CoreStats stats = core.run(trace, simInsts_);

            const PerfInputs in = PerfInputs::fromStats(
                stats, refFreqHz_, recovery_.penaltyCycles);
            if (fullQueues) {
                data.chr.perfFull = in;
                fullStats = stats;
            } else {
                data.chr.perfSmall = in;
            }
        }

        // Activity comes from the full-queue configuration.
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            data.chr.act.alpha[i] = fullStats.alpha(id);
            data.chr.act.rho[i] = fullStats.rho(id);
        }
        app.phases.push_back(data);
    }
    return app;
}

} // namespace eval
