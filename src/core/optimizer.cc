#include "core/optimizer.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "kernels/alpha_power.hh"
#include "kernels/power_kernels.hh"
#include "stats/stat_registry.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

KnobSpace
EnvCapabilities::knobSpace() const
{
    KnobSpace ks;
    ks.hasAsv = asv;
    ks.hasAbb = abb;
    return ks;
}

double
perAccessErrorBudget(const Constraints &c, double alphaF)
{
    const double perInstrBudget =
        c.peMax / static_cast<double>(kNumSubsystems);
    // Accesses per instruction ~= accesses per cycle x CPI; the
    // controller senses only alpha_f, so it assumes a conservative
    // CPI.  (Sec 4.2 sets the whole per-subsystem budget
    // "conservatively"; the retuning cycles absorb the residual.)
    constexpr double kConservativeCpi = 1.3;
    const double rhoProxy = std::max(alphaF * kConservativeCpi, 1e-3);
    return perInstrBudget / rhoProxy;
}

ExhaustiveOptimizer::ExhaustiveOptimizer(const EnvCapabilities &caps,
                                         const Constraints &constraints)
    : knobs_(caps.knobSpace()), constraints_(constraints)
{
}

std::shared_ptr<const ExhaustiveOptimizer::KnobCandidates>
ExhaustiveOptimizer::candidates(double vddNominal)
{
    std::lock_guard<std::mutex> lock(candMutex_);
    if (!cand_ ||
        std::not_equal_to<double>{}(cand_->vddNominal, vddNominal)) {
        auto built = std::make_shared<KnobCandidates>();
        built->vddNominal = vddNominal;
        built->vdds = knobs_.vddCandidates(vddNominal);
        built->vbbs = knobs_.vbbCandidates();
        cand_ = std::move(built);
    }
    return cand_;
}

double
ExhaustiveOptimizer::maxFrequency(const CoreSystemModel &core,
                                  SubsystemId id, bool useAlternate,
                                  double alphaF, double thC)
{
    static Counter &queries =
        StatRegistry::global().counter("optimizer.freq_queries");
    ScopedSpan span("optimizer.max_frequency");
    queries.inc();

    // The answer is the highest grid frequency at which ANY (Vdd, Vbb)
    // setting is feasible.  The legacy search binary-searched the
    // frequency grid with a full knob scan (and a thermal solve per
    // setting) at every probe; this search flips the nesting: walk the
    // settings fast-first and let each setting advance a shared
    // "best feasible index" with its own gallop + binary search.  A
    // setting only pays thermal solves when it can still beat the
    // current best, and almost all settings are eliminated by one PE
    // lookup at the temperature floor (the setting's floor delay scale
    // is computed once and shared by all its probes).  Both searches rest
    // on the same invariant the legacy prefilters used: PE rises with
    // f and T and falls with Vdd and Vbb (fast settings first), and
    // the solved junction temperature is at least TH + Rth * Pdyn, so
    // a setting that misses the budget at the floor can never pass the
    // post-solve check — the prunes only skip settings that would have
    // failed, keeping the chosen frequency bit-identical.
    const double budget = perAccessErrorBudget(constraints_, alphaF);
    const auto cand = candidates(core.params().vddNominal);
    const auto &vdds = cand->vdds;
    const auto &vbbs = cand->vbbs;
    const auto &freqs = knobs_.freq;
    const std::size_t n = freqs.size();

    const StageErrorModel &em =
        core.subsystem(id).errorModel(useAlternate);
    const double r = core.thermal().rth(id);
    const double kdyn = core.subsystem(id).power().kdyn;
    const double tMaxC = constraints_.tMaxC;
    const bool tempPrunable = tMaxC < 400.0;

    // Exact per-setting feasibility at grid index fi, with the two
    // decision-invariant prechecks (temperature floor, PE at floor)
    // ahead of the thermal solve.  floorScale is the setting's delay
    // scale at the floor temperature, computed once per (Vdd, Vbb):
    // only the period varies between a setting's probes.
    const auto feasible = [&](double vdd, double vbb, double floorScale,
                              std::size_t fi) {
        const double f = freqs.value(fi);
        if (tempPrunable &&
            thC + r * dynamicPower(kdyn, alphaF, vdd, f) > tMaxC)
            return false;
        if (em.errorRateAtScale(1.0 / f, floorScale) > budget)
            return false;
        const auto sol = core.evaluateSubsystem(
            id, useAlternate, f, SubsystemKnobs{vdd, vbb}, alphaF,
            alphaF, thC);
        return sol.functional && sol.thermal.tempC <= tMaxC &&
               sol.peAccess <= budget;
    };

    std::ptrdiff_t best = -1;   // highest grid index known feasible
    const double vbbFast = vbbs.back();
    for (auto vddIt = vdds.rbegin(); vddIt != vdds.rend(); ++vddIt) {
        const double vdd = *vddIt;
        std::size_t probe = static_cast<std::size_t>(best + 1);
        if (probe >= n)
            break;   // best already at the top of the grid

        // Row head: if even the row's fastest Vbb misses the budget at
        // the floor temperature for the next frequency to beat, every
        // setting in this row fails there — and PE only grows as Vdd
        // drops, so every remaining row fails too.  One PE lookup
        // retires the rest of the scan.
        const double headScale = em.delayScale({vdd, vbbFast, thC});
        if (em.errorRateAtScale(1.0 / freqs.value(probe), headScale) >
            budget)
            break;
        // Temperature floor is Vbb-free: a row whose floor exceeds
        // TMAX at the probe frequency cannot beat best at any Vbb
        // (but cooler, lower-Vdd rows still might — keep scanning).
        if (tempPrunable &&
            thC + r * dynamicPower(kdyn, alphaF, vdd,
                                   freqs.value(probe)) > tMaxC)
            continue;

        for (auto vbbIt = vbbs.rbegin(); vbbIt != vbbs.rend(); ++vbbIt) {
            const double vbb = *vbbIt;
            probe = static_cast<std::size_t>(best + 1);
            if (probe >= n)
                break;
            // Reverse bias only raises PE: once a Vbb misses the
            // budget at the floor, the rest of the row misses it too.
            const double floorScale = vbbIt == vbbs.rbegin()
                                          ? headScale
                                          : em.delayScale({vdd, vbb, thC});
            if (em.errorRateAtScale(1.0 / freqs.value(probe), floorScale) >
                budget)
                break;
            if (!feasible(vdd, vbb, floorScale, probe))
                continue;

            // This setting beats the best — gallop upward to bracket
            // its own maximum, then binary-search the bracket.
            // Per-setting feasibility is monotone in f (PE and T both
            // rise), the same invariant the legacy frequency binary
            // search relied on.
            std::size_t lo = probe;   // known feasible (this setting)
            std::size_t hi = n;       // first known-infeasible, n=none
            // Gallop only when the bracket starts above the grid
            // bottom (best + 1 is usually close to the answer); from
            // the bottom a plain binary search over the whole grid
            // needs fewer probes than doubling through it.
            if (probe > 0) {
                for (std::size_t step = 1; lo + step < n; step <<= 1) {
                    const std::size_t t = lo + step;
                    if (feasible(vdd, vbb, floorScale, t)) {
                        lo = t;
                    } else {
                        hi = t;
                        break;
                    }
                }
            }
            while (hi - lo > 1) {
                const std::size_t mid = (lo + hi) / 2;
                if (feasible(vdd, vbb, floorScale, mid))
                    lo = mid;
                else
                    hi = mid;
            }
            best = static_cast<std::ptrdiff_t>(lo);
        }
    }
    return best < 0 ? 0.0 : freqs.value(static_cast<std::size_t>(best));
}

std::optional<SubsystemKnobs>
ExhaustiveOptimizer::minimizePower(const CoreSystemModel &core,
                                   SubsystemId id, bool useAlternate,
                                   double fcore, double alphaF,
                                   double thC)
{
    static Counter &queries =
        StatRegistry::global().counter("optimizer.power_queries");
    ScopedSpan span("optimizer.minimize_power");
    queries.inc();

    const double budget = perAccessErrorBudget(constraints_, alphaF);
    const auto cand = candidates(core.params().vddNominal);
    const auto &vdds = cand->vdds;
    const auto &vbbs = cand->vbbs;

    const SubsystemModel &sub = core.subsystem(id);
    const StageErrorModel &em = sub.errorModel(useAlternate);
    const double r = core.thermal().rth(id);
    const double kdyn = sub.power().kdyn;
    const double pf = sub.powerFactor(useAlternate);
    const bool tempPrunable = constraints_.tMaxC < 400.0;
    const ProcessParams &tp = core.thermal().params();
    const double ksta = sub.power().ksta;
    const double vt0 = sub.vt0True();

    std::optional<SubsystemKnobs> best;
    double bestPower = 1e30;
    // Upper bound on the next row's first floor-feasible Vbb: PE at the
    // floor only falls as Vdd rises (the invariant maxFrequency's
    // row-head break rests on), so a row's first passing Vbb passes in
    // every later row too.
    std::size_t okBound = vbbs.size();
    for (double vdd : vdds) {
        // Pdyn depends only on Vdd here, giving two Vbb-row prunes:
        // the temperature floor TH + Rth * Pdyn (leakage only adds
        // heat) exceeding TMAX means no Vbb can cool the row into
        // feasibility, and pf * Pdyn alone already beating the best
        // power means no Vbb can win (Psta > 0).  Pdyn grows with Vdd
        // and the rows ascend in Vdd, so either prune also holds for
        // every remaining row.
        const double pdyn = dynamicPower(kdyn, alphaF, vdd, fcore);
        if (tempPrunable && thC + r * pdyn > constraints_.tMaxC)
            break;
        if (pf * pdyn >= bestPower)
            break;
        // Optimistic PE prefilter at T = TH: PE only falls as Vbb
        // swings toward forward bias, so the Vbbs that meet the error
        // budget at the floor form a suffix of the ascending row —
        // binary-search its start (below okBound) instead of filtering
        // linearly.  The skipped queries are exactly the ones the
        // linear filter would have rejected, so the chosen setting is
        // unchanged.
        std::size_t lo = 0, hi = okBound;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            const OperatingConditions cool{vdd, vbbs[mid], thC};
            if (em.errorRatePerAccess(1.0 / fcore, cool) <= budget)
                hi = mid;
            else
                lo = mid + 1;
        }
        const std::size_t firstOk = lo;
        okBound = firstOk;
        if (firstOk == vbbs.size())
            continue;
        // Power floor of the row: every solve ends at T >= TH, and
        // Psta (Eq 8/9, the solver's own expressions) grows with T and
        // with forward bias, so no setting of the row can cost less
        // than pf * (Pdyn + Psta(TH, vbbs[firstOk])).  The relative
        // margin keeps rounding from flipping a tie.
        const OperatingConditions coolest{vdd, vbbs[firstOk], thC};
        const double pstaFloor =
            staticPowerEq8(ksta, vdd, thC, effectiveVt(tp, vt0, coolest));
        if (pf * pdyn + pf * pstaFloor >= bestPower * (1.0 + 1e-9))
            continue;
        for (std::size_t vi = firstOk; vi < vbbs.size(); ++vi) {
            const double vbb = vbbs[vi];
            SubsystemKnobs k{vdd, vbb};
            const auto sol = core.evaluateSubsystem(
                id, useAlternate, fcore, k, alphaF, alphaF, thC);
            if (!sol.functional ||
                sol.thermal.tempC > constraints_.tMaxC ||
                sol.peAccess > budget) {
                continue;
            }
            const double p = sol.thermal.power();
            if (p < bestPower) {
                bestPower = p;
                best = k;
            }
            // Pdyn is Vbb-free and Psta only grows with forward bias
            // (Eq 8: Vbb lowers Vt, raising leakage exponentially, and
            // the extra heat compounds it), so the first feasible Vbb
            // in this ascending scan is the row's cheapest — the rest
            // of the row cannot beat it.
            break;
        }
    }
    return best;
}

CoreOptimizer::CoreOptimizer(SubsystemOptimizer &sub,
                             const EnvCapabilities &caps,
                             const Constraints &constraints,
                             const RecoveryModel &recovery)
    : sub_(sub), caps_(caps), constraints_(constraints),
      recovery_(recovery), knobs_(caps.knobSpace())
{
    EVAL_ASSERT(caps.timingSpec,
                "the adaptation controller requires timing speculation");
}

CoreOptimizer::ConfigFreq
CoreOptimizer::foldFigure4(const CoreSystemModel &core,
                           const std::array<double, kNumSubsystems> &fmax,
                           double fLowSlope) const
{
    const std::size_t fu = static_cast<std::size_t>(core.fuSubsystem());
    ConfigFreq out;
    out.fmax = fmax;
    double minRest = 1e30;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        if (!(caps_.fuReplication && i == fu))
            minRest = std::min(minRest, fmax[i]);
    }
    if (!caps_.fuReplication) {
        out.raw = minRest;
        return out;
    }

    // Figure 4: enable the low-slope FU only when the normal FU would
    // limit the core frequency (cases i and ii); otherwise save power.
    // Guard against the replica not paying off (a temperature-limited
    // FU gets hotter from the replica's 30% power premium).
    const double fNormal = fmax[fu];
    out.lowSlope = fNormal < minRest && fLowSlope > fNormal;
    out.fmax[fu] = out.lowSlope ? fLowSlope : fNormal;
    out.raw = std::min(minRest, out.fmax[fu]);
    return out;
}

AdaptationResult
CoreOptimizer::choose(const CoreSystemModel &core,
                      const PhaseCharacterization &phase, double thC)
{
    static Counter &calls =
        StatRegistry::global().counter("optimizer.choose_calls");
    static Counter &infeasible =
        StatRegistry::global().counter("optimizer.infeasible");
    ScopedSpan span("optimizer.choose");
    calls.inc();

    AdaptationResult result;

    // --- Freq algorithm: one query per (subsystem, configuration) ---
    // Only the queue subsystem's answer depends on the queue size, so
    // the two queue configurations share every other answer, and the
    // low-slope FU's answer serves both.
    const SubsystemId fuId = core.fuSubsystem();
    const SubsystemId queueId = core.queueSubsystem();
    const auto freqOf = [&](SubsystemId id, bool alt) {
        return sub_.maxFrequency(core, id, alt,
                                 phase.act.alpha[static_cast<std::size_t>(id)],
                                 thC);
    };
    std::array<double, kNumSubsystems> fmaxFull{};
    for (std::size_t i = 0; i < kNumSubsystems; ++i)
        fmaxFull[i] = freqOf(static_cast<SubsystemId>(i), false);
    const double fLowSlope =
        caps_.fuReplication ? freqOf(fuId, true) : 0.0;
    ConfigFreq pick = foldFigure4(core, fmaxFull, fLowSlope);

    bool smallQueue = false;
    if (caps_.queueResize) {
        std::array<double, kNumSubsystems> fmaxSmall = fmaxFull;
        fmaxSmall[static_cast<std::size_t>(queueId)] = freqOf(queueId, true);
        const ConfigFreq small = foldFigure4(core, fmaxSmall, fLowSlope);

        // Sec 4.2: compare Eq 5 performance of (CPIcomp_1.00,
        // fcore_1.00) against (CPIcomp_0.75, fcore_0.75).
        const double peTarget = constraints_.peMax;
        const double perfFull = pick.raw > 0.0
            ? performance(pick.raw, peTarget, phase.perfFull) : 0.0;
        const double perfSmall = small.raw > 0.0
            ? performance(small.raw, peTarget, phase.perfSmall) : 0.0;
        if (perfSmall > perfFull) {
            smallQueue = true;
            pick = small;
        }
    }

    result.fmax = pick.fmax;
    double rawFreq = pick.raw;
    if (rawFreq <= 0.0) {
        // No subsystem setting is feasible even at the slowest clock;
        // fall back to the bottom of the range and flag it.
        result.feasible = false;
        rawFreq = knobs_.freq.lo();
    }

    OperatingPoint op = nominalOperatingPoint(core.params());
    op.freq = knobs_.freq.quantizeDown(std::min(rawFreq, knobs_.freq.hi()));
    op.smallQueue = smallQueue;
    op.lowSlopeFu = caps_.fuReplication && pick.lowSlope;

    // --- Power algorithm + PMAX check (Figure 3 right box) ---
    const PerfInputs &perfIn =
        smallQueue ? phase.perfSmall : phase.perfFull;
    for (int guard = 0; guard < 40; ++guard) {
        // Every Power query reads op (via usesAlternate), so all of
        // them run before any answer is folded into op.
        std::array<std::optional<SubsystemKnobs>, kNumSubsystems> picks;
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            const bool alt = core.usesAlternate(id, op);
            picks[i] = sub_.minimizePower(core, id, alt, op.freq,
                                          phase.act.alpha[i], thC);
        }
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            if (picks[i]) {
                op.knobsOf(id) = {knobs_.vdd.quantize(picks[i]->vdd),
                                  knobs_.vbb.quantize(picks[i]->vbb)};
            } else {
                // Best effort: fastest available setting.
                op.knobsOf(id) = {knobs_.vdd.hi(),
                                  caps_.abb ? knobs_.vbb.hi() : 0.0};
                result.feasible = false;
            }
        }

        const CoreEvaluation ev = core.evaluate(op, phase.act, thC);
        const double checker =
            core.calibration().checkerPowerW *
            (op.freq / core.params().freqNominal);
        if (ev.totalPowerW + checker <= constraints_.pMaxW ||
            op.freq <= knobs_.freq.lo()) {
            result.predictedPerf =
                performance(op.freq, ev.pePerInstruction, perfIn);
            result.predictedPe = ev.pePerInstruction;
            break;
        }
        op.freq = knobs_.freq.quantizeDown(op.freq - knobs_.freq.step());
    }

    if (!result.feasible)
        infeasible.inc();

    result.op = op;
    return result;
}

} // namespace eval
