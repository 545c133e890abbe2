#include "arch/cache.hh"

#include <bit>

#include "util/logging.hh"

namespace eval {

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg)
{
    EVAL_ASSERT(cfg.lineBytes > 0 && cfg.ways > 0 && cfg.sizeBytes > 0,
                "cache geometry must be positive");
    EVAL_ASSERT(std::has_single_bit(cfg.lineBytes),
                "line size must be a power of two");
    numSets_ = cfg.sizeBytes / (cfg.lineBytes * cfg.ways);
    EVAL_ASSERT(numSets_ > 0, "cache must have at least one set");
    EVAL_ASSERT(std::has_single_bit(numSets_),
                "number of sets must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(cfg.lineBytes));
    setShift_ = lineShift_ +
                static_cast<unsigned>(std::countr_zero(numSets_));
    lines_.resize(numSets_ * cfg.ways);
}

std::size_t
Cache::setOf(std::uint64_t addr) const
{
    return static_cast<std::size_t>((addr >> lineShift_) &
                                    (numSets_ - 1));
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return addr >> setShift_;
}

bool
Cache::access(std::uint64_t addr)
{
    const std::size_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    Line *base = &lines_[set * cfg_.ways];
    ++clock_;

    Line *victim = base;
    for (std::size_t w = 0; w < cfg_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lru = clock_;
            ++hits_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lru < victim->lru) {
            victim = &line;
        }
    }

    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = clock_;
    return false;
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::size_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    const Line *base = &lines_[set * cfg_.ways];
    for (std::size_t w = 0; w < cfg_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &l1, Cache &sharedL2,
                               const MemLatencies &lat)
    : l1_(l1), l2_(sharedL2), lat_(lat)
{
}

MemAccessResult
CacheHierarchy::access(std::uint64_t addr)
{
    ++accessCount_;
    if (l1_.access(addr))
        return {MemLevel::L1, lat_.l1};
    if (l2_.access(addr))
        return {MemLevel::L2, lat_.l2};
    ++l2MissCount_;
    return {MemLevel::Memory, lat_.memory};
}

} // namespace eval
