/**
 * @file
 * Trace-driven out-of-order core model (the SESC substitute).
 *
 * Models a 3-issue core in the style of the paper's AMD Athlon 64
 * baseline: fetch/dispatch, separate integer and FP issue queues
 * (resizable to 3/4 capacity, Sec 3.3.2), a unified ROB, an LSQ, a
 * gshare branch predictor, two cache levels with the Figure 7(a)
 * latencies, per-class functional units, and a Diva-style checker
 * hook that injects timing-error recoveries at retirement.
 *
 * The simulator produces exactly what Eq 5 consumes: CPIcomp, the L2
 * miss rate and observed non-overlapped miss penalty, and the
 * per-subsystem activity factors (accesses per cycle and per
 * instruction) that drive the power/thermal models and the error
 * model's rho_i weights.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "arch/branch_predictor.hh"
#include "arch/cache.hh"
#include "arch/isa.hh"
#include "util/random.hh"
#include "variation/floorplan.hh"

namespace eval {

/** Static core configuration. */
struct CoreConfig
{
    unsigned fetchWidth = 3;
    unsigned issueWidth = 3;
    unsigned retireWidth = 3;
    unsigned robSize = 96;
    unsigned lsqSize = 44;

    /** Full-sized issue queues (Figure 7(a)). */
    unsigned intQueueFull = 68;
    unsigned fpQueueFull = 32;
    /** 1.0 or 0.75 (the resizing technique of Sec 3.3.2). */
    double queueCapacityFraction = 1.0;

    /** Functional-unit counts (3 add/shift + 1 mult integer cluster;
     *  1 FP adder + 1 FP multiplier, Figure 7(a)). */
    unsigned intAluCount = 3;
    unsigned intMulCount = 1;
    unsigned fpAddCount = 1;
    unsigned fpMulCount = 1;

    /** Front-end depth: cycles to refill after a redirect. */
    unsigned frontendDepth = 10;

    /** Miss-status holding registers: outstanding-miss limit. */
    unsigned mshrs = 16;

    /** Next-line prefetch into the data hierarchy on an L1D miss. */
    bool prefetchNextLine = false;

    /**
     * FU replication (Sec 3.3.1) inserts one stage between register
     * read and execute, lengthening branch-resolution loops by one
     * cycle without hurting back-to-back ALU ops.
     */
    bool fuReplicated = false;

    CacheConfig l1i{64 * 1024, 64, 2};
    CacheConfig l1d{64 * 1024, 64, 2};
    CacheConfig l2{1024 * 1024, 64, 8};
    MemLatencies memLat{};

    unsigned intQueueCapacity() const;
    unsigned fpQueueCapacity() const;
};

/** Counters collected by a simulation run. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2MissesIStream = 0;   ///< subset of l2Misses
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t memStallCycles = 0;       ///< retire blocked on memory
    std::uint64_t errorRecoveries = 0;      ///< checker-triggered flushes
    std::uint64_t recoveryStallCycles = 0;
    std::array<std::uint64_t, kNumSubsystems> accesses{};

    double cpi() const;
    double ipc() const;
    /** Computation CPI: total minus memory and recovery stalls. */
    double cpiComp() const;
    /** L2 misses per instruction (Eq 5's mr). */
    double missesPerInstruction() const;
    /** Observed non-overlapped penalty per miss, cycles (Eq 5's mp). */
    double missPenaltyCycles() const;
    /** Accesses per cycle for a subsystem (alpha_f). */
    double alpha(SubsystemId id) const;
    /** Accesses per instruction for a subsystem (rho_i). */
    double rho(SubsystemId id) const;
};

/** The core simulator. */
class Core
{
  public:
    Core(const CoreConfig &cfg, std::uint64_t seed);

    /**
     * Enable checker-recovery injection: each retiring instruction
     * flushes the pipeline with probability @p perInstProbability and
     * costs ~@p penaltyCycles (Diva recovery, Sec 3.1).
     */
    void setErrorInjection(double perInstProbability,
                           unsigned penaltyCycles);

    /** Run until @p numInstructions retire; returns the counters. */
    CoreStats run(TraceSource &trace, std::uint64_t numInstructions);

  private:
    struct InFlight
    {
        MicroOp op;
        std::uint64_t completeCycle = 0; ///< result available
        /** Intrusive wait chain: seqs of unissued consumers parked on
         *  this entry, woken when it issues (kNoWaiter = none). */
        std::uint64_t firstWaiter = kNoWaiter;
        std::uint64_t nextWaiter = kNoWaiter;
        bool issued = false;
        bool isFpSide = false;
    };

    /** Sentinel seq for the InFlight waiter chains. */
    static constexpr std::uint64_t kNoWaiter = ~0ULL;
    /** ROB ring slots; entry seq lives in slot seq % kRobSlots. */
    static constexpr unsigned kRobSlots = 128;
    /** One bit per ROB ring slot. */
    using SlotMask = unsigned __int128;

    static SlotMask slotBit(std::uint64_t seq)
    {
        return SlotMask{1} << (seq % kRobSlots);
    }
    InFlight &slot(std::uint64_t seq) { return rob_[seq % kRobSlots]; }

    void dispatch(TraceSource &trace, std::uint64_t now);
    void issue(std::uint64_t now);
    unsigned retire(std::uint64_t now, unsigned maxRetire);
    /** Squash every in-flight op back to the fetch queue. */
    void squashAll(std::uint64_t resumeCycle);
    unsigned execLatency(const MicroOp &op, std::uint64_t now);
    void count(SubsystemId id, std::uint64_t n = 1);

    CoreConfig cfg_;
    Rng rng_;
    GsharePredictor bpred_;
    Cache l2_;
    CacheHierarchy icache_;
    CacheHierarchy dcache_;

    double errorProb_ = 0.0;
    unsigned errorPenalty_ = 14;

    // Transient machine state.
    std::deque<MicroOp> fetchQueue_;
    /** The ROB: seqs robHead_ .. nextSeq_-1 are in flight. */
    std::array<InFlight, kRobSlots> rob_;
    std::uint64_t robHead_ = 0;
    /** Completion cycles of issued loads occupying an MSHR.  Replaces
     *  the per-cycle ROB scan that used to recount them: entries are
     *  pushed when a missing load issues, lazily pruned once their
     *  cycle passes (time only moves forward within a run), and
     *  cleared on a squash — the count matches the old scan exactly.
     *  Bounded by cfg_.mshrs (the issue stage stops allocating at the
     *  limit). */
    std::vector<std::uint64_t> missComplete_;
    /**
     * Event-driven issue scheduling (DESIGN.md §5g).  Instead of
     * scanning the whole ROB every cycle, issue() only visits the
     * slots set in `cand_`: unissued entries that could plausibly
     * issue this cycle.  An entry that fails its dependency check
     * clears its bit and parks in one of two places:
     *   - `wheel_[c & wheelMask_]` when the blocking producer had
     *     issued — readiness is then purely a matter of reaching the
     *     producer's completion cycle c, and issue(c) ORs the bucket
     *     back into `cand_`;
     *   - the blocking producer's intrusive waiter chain when it had
     *     not issued — nothing can change for the consumer until that
     *     producer issues, at which point the chain moves to the
     *     wheel bucket of the producer's completion cycle.
     * The wheel has more slots than the longest execution latency, so
     * a bucket only ever holds entries due on the cycle that drains
     * it.  A parked entry wakes no later than the first cycle it
     * could issue, and until then its recheck could only have parked
     * it again, so issue order and every counter match a full scan.
     */
    SlotMask cand_ = 0;
    std::vector<SlotMask> wheel_;
    std::uint64_t wheelMask_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fetchResumeCycle_ = 0;
    std::uint64_t pendingBranchSeq_ = 0;
    bool fetchBlockedOnBranch_ = false;
    unsigned intQueueOcc_ = 0;
    unsigned fpQueueOcc_ = 0;
    unsigned lsqOcc_ = 0;
    std::uint64_t fpDivBusyUntil_ = 0;

    CoreStats stats_;
};

} // namespace eval

