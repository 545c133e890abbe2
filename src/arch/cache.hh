/**
 * @file
 * Set-associative cache model with true LRU, and a two-level
 * hierarchy with the paper's latencies (L1: 2 cycles, L2: 8 cycles,
 * memory: 208 cycles round trip, Figure 7(a)).
 */

#pragma once

#include <cstdint>
#include <vector>

namespace eval {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::size_t sizeBytes = 64 * 1024;
    std::size_t lineBytes = 64;
    std::size_t ways = 2;
};

/** One set-associative cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** Access a byte address; returns true on hit (allocates on miss). */
    bool access(std::uint64_t addr);

    /** Probe without allocating or touching LRU. */
    bool contains(std::uint64_t addr) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    void resetStats() { hits_ = misses_ = 0; }

    const CacheConfig &config() const { return cfg_; }

  private:
    struct Line
    {
        std::uint64_t tag = ~0ULL;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::size_t setOf(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;

    CacheConfig cfg_;
    std::size_t numSets_;
    unsigned lineShift_;   ///< log2(lineBytes)
    unsigned setShift_;    ///< log2(lineBytes * numSets_): tag offset
    std::vector<Line> lines_;   ///< [set * ways + way]
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Where an access was satisfied. */
enum class MemLevel { L1, L2, Memory };

/** Latency configuration for the hierarchy (cycles at nominal f). */
struct MemLatencies
{
    unsigned l1 = 2;
    unsigned l2 = 8;
    unsigned memory = 208;
};

/** Result of a hierarchy access. */
struct MemAccessResult
{
    MemLevel level;
    unsigned latency;
};

/**
 * One L1 in front of a (possibly shared) unified L2 and memory.  The
 * L2 is owned by the caller so the instruction and data sides of a
 * core can share it.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheConfig &l1, Cache &sharedL2,
                   const MemLatencies &lat);

    MemAccessResult access(std::uint64_t addr);

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    std::uint64_t l2Misses() const { return l2MissCount_; }
    std::uint64_t accesses() const { return accessCount_; }
    const MemLatencies &latencies() const { return lat_; }

  private:
    Cache l1_;
    Cache &l2_;
    MemLatencies lat_;
    std::uint64_t l2MissCount_ = 0;
    std::uint64_t accessCount_ = 0;
};

} // namespace eval

