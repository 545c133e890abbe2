#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace eval {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t v, int k)
{
    return (v << k) | (v >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : state_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 significant bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    EVAL_ASSERT(bound > 0, "uniformInt bound must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (0ULL - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork(std::uint64_t streamLabel)
{
    return split(streamLabel);
}

Rng
Rng::split(std::uint64_t streamId) const
{
    // Derive the child seed from the parent state and the label so
    // splits are reproducible and distinct per label.
    std::uint64_t mix = state_[0] ^ rotl(state_[2], 29) ^
                        (streamId * 0xd1342543de82ef95ULL + 1);
    return Rng(splitmix64(mix));
}

Rng::State
Rng::state() const
{
    State s;
    s.words = state_;
    s.cachedGaussian = cachedGaussian_;
    s.hasCachedGaussian = hasCachedGaussian_;
    return s;
}

} // namespace eval
