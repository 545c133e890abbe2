/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic components (variation maps, path sensitization,
 * workload generation, fuzzy-controller training) draw from Rng so that
 * every experiment is reproducible from a single seed.  The generator
 * is xoshiro256++, seeded through splitmix64; child streams can be
 * forked deterministically so that modules do not perturb each other's
 * random sequences.
 */

#pragma once

#include <array>
#include <cstdint>

namespace eval {

/** Splittable xoshiro256++ PRNG with Gaussian sampling support. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Standard normal deviate (Box-Muller with caching). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * Fork a statistically independent child stream.  The child is a
     * deterministic function of this generator's current state and the
     * given stream label, so forks with distinct labels from the same
     * parent state never collide.
     */
    Rng fork(std::uint64_t streamLabel);

    /**
     * Derive child stream @p streamId without touching this
     * generator's state (split is const and fork never advances the
     * parent, so split(i) == fork(i) for every i).  This is the
     * parallel-safe seeding primitive: a per-chip task seeded with
     * `master.split(chipIndex)` draws the same sequence whether the
     * chips run serially or fanned out across a thread pool.
     */
    Rng split(std::uint64_t streamId) const;

    /**
     * Complete generator state for snapshotting: the xoshiro words
     * plus the Box-Muller spare (a pending cached gaussian is part of
     * where the stream stands).
     */
    struct State
    {
        std::array<std::uint64_t, 4> words{};
        double cachedGaussian = 0.0;
        bool hasCachedGaussian = false;
    };

    State state() const;

  private:
    std::array<std::uint64_t, 4> state_;
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

} // namespace eval

