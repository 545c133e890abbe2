// eval-lint: hot-path dispatch/issue/retire run once per simulated
// cycle; only construction and run() set-up may allocate.
#include "arch/core.hh"

#include <algorithm>
#include <bit>

#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

unsigned
CoreConfig::intQueueCapacity() const
{
    return static_cast<unsigned>(intQueueFull * queueCapacityFraction);
}

unsigned
CoreConfig::fpQueueCapacity() const
{
    return static_cast<unsigned>(fpQueueFull * queueCapacityFraction);
}

double
CoreStats::cpi() const
{
    return instructions ? static_cast<double>(cycles) /
                              static_cast<double>(instructions)
                        : 0.0;
}

double
CoreStats::ipc() const
{
    return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                  : 0.0;
}

double
CoreStats::cpiComp() const
{
    if (!instructions)
        return 0.0;
    const std::uint64_t stall = memStallCycles + recoveryStallCycles;
    const std::uint64_t comp = cycles > stall ? cycles - stall : 0;
    return static_cast<double>(comp) / static_cast<double>(instructions);
}

double
CoreStats::missesPerInstruction() const
{
    return instructions ? static_cast<double>(l2Misses) /
                              static_cast<double>(instructions)
                        : 0.0;
}

double
CoreStats::missPenaltyCycles() const
{
    return l2Misses ? static_cast<double>(memStallCycles) /
                          static_cast<double>(l2Misses)
                    : 0.0;
}

double
CoreStats::alpha(SubsystemId id) const
{
    return cycles ? static_cast<double>(
                        accesses[static_cast<std::size_t>(id)]) /
                        static_cast<double>(cycles)
                  : 0.0;
}

double
CoreStats::rho(SubsystemId id) const
{
    return instructions ? static_cast<double>(
                              accesses[static_cast<std::size_t>(id)]) /
                              static_cast<double>(instructions)
                        : 0.0;
}

// Synthetic traces carry no inter-branch history correlation, so a
// long gshare history only adds aliasing noise; a short history keeps
// the per-PC bias information that is actually learnable.
Core::Core(const CoreConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed), bpred_(12, 4), l2_(cfg.l2),
      icache_(cfg.l1i, l2_, cfg.memLat),
      dcache_(cfg.l1d, l2_, cfg.memLat)
{
    EVAL_ASSERT(cfg.queueCapacityFraction > 0.0 &&
                    cfg.queueCapacityFraction <= 1.0,
                "queue capacity fraction in (0,1]");
    EVAL_ASSERT(cfg.robSize > 0 && cfg.robSize <= kRobSlots,
                "robSize ", cfg.robSize, " outside [1, ", kRobSlots,
                "] (the ROB ring and issue masks have ", kRobSlots,
                " slots)");
    EVAL_ASSERT(cfg.fetchWidth > 0 && cfg.issueWidth > 0 &&
                    cfg.retireWidth > 0,
                "fetch, issue and retire widths must be positive");
    EVAL_ASSERT(cfg.mshrs > 0, "mshrs must be positive (loads could "
                               "never issue)");

    // A parked entry waits at most one execution latency (a load's
    // 1 + memory, or the FP divide's 16 cycles), so a wheel with more
    // slots than that never holds two different due cycles in a
    // bucket.
    const unsigned maxLatency = std::max(
        {16u, 1 + cfg.memLat.l1, 1 + cfg.memLat.l2,
         1 + cfg.memLat.memory});
    wheel_.assign(std::bit_ceil(maxLatency + 1u), SlotMask{0});
    wheelMask_ = wheel_.size() - 1;
}

void
Core::setErrorInjection(double perInstProbability, unsigned penaltyCycles)
{
    EVAL_ASSERT(perInstProbability >= 0.0 && perInstProbability <= 1.0,
                "error probability in [0,1]");
    errorProb_ = perInstProbability;
    errorPenalty_ = penaltyCycles;
}

void
Core::count(SubsystemId id, std::uint64_t n)
{
    stats_.accesses[static_cast<std::size_t>(id)] += n;
}

unsigned
Core::execLatency(const MicroOp &op, std::uint64_t now)
{
    switch (op.cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        return 1;
      case OpClass::IntMul:
        return 4;
      case OpClass::FpAdd:
        return 3;
      case OpClass::FpMul:
        return 4;
      case OpClass::FpDiv:
        return 16;
      case OpClass::Store: {
        // Stores complete at address generation; the write-allocate
        // fill drains from the store buffer off the critical path, so
        // it costs no latency but does occupy the caches.
        count(SubsystemId::Dcache);
        count(SubsystemId::DTLB);
        const MemAccessResult res = dcache_.access(op.addr);
        if (res.level != MemLevel::L1)
            ++stats_.l1dMisses;
        if (res.level == MemLevel::Memory)
            ++stats_.l2Misses;
        return 1;
      }
      case OpClass::Load: {
        count(SubsystemId::Dcache);
        count(SubsystemId::DTLB);
        const MemAccessResult res = dcache_.access(op.addr);
        if (res.level != MemLevel::L1) {
            ++stats_.l1dMisses;
            // Optional next-line prefetch: fill the following line so
            // streaming accesses hit.  The fill happens off the
            // critical path (no latency charged here).
            if (cfg_.prefetchNextLine)
                dcache_.access(op.addr + cfg_.l1d.lineBytes);
        }
        if (res.level == MemLevel::Memory)
            ++stats_.l2Misses;
        return 1 + res.latency;
      }
      default:
        EVAL_PANIC("unknown op class ", static_cast<int>(op.cls), " at ",
                   now);
    }
}

void
Core::dispatch(TraceSource &trace, std::uint64_t now)
{
    if (now < fetchResumeCycle_ || fetchBlockedOnBranch_)
        return;

    bool accessedIcache = false;
    for (unsigned n = 0; n < cfg_.fetchWidth; ++n) {
        if (nextSeq_ - robHead_ >= cfg_.robSize)
            break;

        // Obtain the next op (replayed ops first).
        MicroOp op;
        if (!fetchQueue_.empty()) {
            op = fetchQueue_.front();
        } else {
            if (!trace.next(op))
                break;
            EVAL_ASSERT(op.cls < OpClass::NumClasses, "trace op class ",
                        static_cast<int>(op.cls), " out of range");
            // eval-lint: allow(perf-hot-alloc) holds at most the one op
            // peeked here plus ops returned by a squash (<= robSize)
            fetchQueue_.push_back(op);
        }

        // Structural checks before consuming the op.
        const bool fpSide = isFpOp(op.cls);
        if (fpSide) {
            if (fpQueueOcc_ >= cfg_.fpQueueCapacity())
                break;
        } else {
            if (intQueueOcc_ >= cfg_.intQueueCapacity())
                break;
        }
        if (isMemOp(op.cls) && lsqOcc_ >= cfg_.lsqSize)
            break;

        // I-cache: one access per active fetch cycle; a miss stalls
        // the front end for the fill latency.
        if (!accessedIcache) {
            accessedIcache = true;
            count(SubsystemId::Icache);
            count(SubsystemId::ITLB);
            const MemAccessResult res = icache_.access(op.pc);
            if (res.level != MemLevel::L1) {
                ++stats_.l1iMisses;
                if (res.level == MemLevel::Memory) {
                    ++stats_.l2Misses;
                    ++stats_.l2MissesIStream;
                }
                fetchResumeCycle_ = now + res.latency;
                break;
            }
        }

        fetchQueue_.pop_front();

        const std::uint64_t seq = nextSeq_++;
        InFlight &inf = slot(seq);
        inf = InFlight{};
        inf.op = op;
        inf.isFpSide = fpSide;
        cand_ |= slotBit(seq);

        count(SubsystemId::Decode);
        count(fpSide ? SubsystemId::FPMap : SubsystemId::IntMap);
        count(fpSide ? SubsystemId::FPQ : SubsystemId::IntQ);
        if (fpSide)
            ++fpQueueOcc_;
        else
            ++intQueueOcc_;
        if (isMemOp(op.cls)) {
            ++lsqOcc_;
            count(SubsystemId::LdStQ);
        }

        if (op.cls == OpClass::Branch) {
            count(SubsystemId::BranchPred);
            ++stats_.branches;
            const bool mispredicted = bpred_.predictAndUpdate(op.pc,
                                                              op.taken);
            if (mispredicted) {
                ++stats_.branchMispredicts;
                fetchBlockedOnBranch_ = true;
                pendingBranchSeq_ = seq;
                break;
            }
        }
    }
}

void
Core::issue(std::uint64_t now)
{
    unsigned issued = 0;
    // Functional-unit pools: the integer ALUs (shared by loads, stores
    // and branches), the integer multiplier, the FP adder and the FP
    // multiplier (shared by divides).
    enum Pool : std::uint8_t { kAlu, kMul, kFadd, kFmul };
    static constexpr std::array<Pool, kNumOpClasses> kPoolOf{
        kAlu, kMul, kFadd, kFmul, kFmul, kAlu, kAlu, kAlu};
    const std::array<unsigned, 4> poolSize{
        cfg_.intAluCount, cfg_.intMulCount, cfg_.fpAddCount,
        cfg_.fpMulCount};
    std::array<unsigned, 4> used{};

    // MSHR occupancy: drop completed fills (now is monotone within a
    // run, so a pruned entry can never count again), count the rest.
    missComplete_.erase(
        std::remove_if(missComplete_.begin(), missComplete_.end(),
                       [now](std::uint64_t c) { return c <= now; }),
        missComplete_.end());
    unsigned missesInFlight =
        static_cast<unsigned>(missComplete_.size());

    // Wake the parked entries due this cycle.
    SlotMask &due = wheel_[now & wheelMask_];
    cand_ |= due;
    due = 0;

    // Visit the candidates in seq (= ROB) order: rotate the mask so
    // the head's slot is bit 0, then walk the set bits upwards.  An
    // entry that issues or parks clears its bit; the rest stay for
    // the next cycle.  A class-level structural gate runs first so an
    // entry whose functional-unit class is already exhausted this
    // cycle is kept without rechecking dependencies — the full scan
    // would have reached the same `continue` after the dep check, and
    // the dep check writes nothing, so skipping it is unobservable.
    const unsigned headSlot = robHead_ % kRobSlots;
    SlotMask walk = headSlot ? (cand_ >> headSlot) |
                                   (cand_ << (kRobSlots - headSlot))
                             : cand_;
    for (; walk; walk &= walk - 1) {
        const auto lo = static_cast<std::uint64_t>(walk);
        const std::uint64_t seq =
            robHead_ +
            (lo ? std::countr_zero(lo)
                : 64 + std::countr_zero(
                           static_cast<std::uint64_t>(walk >> 64)));
        InFlight &inf = slot(seq);

        // Structural conflicts carry no wake event: the entry stays a
        // candidate and retries next cycle.  Besides its pool, a load
        // that may miss needs an MSHR (the memory-level-parallelism
        // limit), and a divide waits for the unpipelined divider.
        const OpClass cls = inf.op.cls;
        const Pool pool = kPoolOf[static_cast<std::size_t>(cls)];
        if (used[pool] >= poolSize[pool] ||
            (cls == OpClass::Load && missesInFlight >= cfg_.mshrs) ||
            (cls == OpClass::FpDiv && fpDivBusyUntil_ > now))
            continue;

        // Operand readiness via backward dependency distances.
        bool ready = true;
        std::uint64_t blockCycle = 0;
        std::uint64_t blockProdSeq = kNoWaiter;
        auto checkDep = [&](std::uint16_t dist) {
            if (!ready || dist == 0)
                return;
            if (dist > seq)
                return;   // producer predates the trace window
            const std::uint64_t prodSeq = seq - dist;
            if (prodSeq < robHead_)
                return;   // producer already retired
            const InFlight &prod = slot(prodSeq);
            if (!prod.issued) {
                // No time bound exists until the producer issues —
                // park on that producer's waiter chain.
                ready = false;
                blockProdSeq = prodSeq;
                return;
            }
            if (prod.completeCycle > now) {
                ready = false;
                blockCycle = prod.completeCycle;
            }
        };
        checkDep(inf.op.src1Dist);
        checkDep(inf.op.src2Dist);
        // Issuing or parking, the entry leaves the candidates.
        cand_ &= ~slotBit(seq);
        if (!ready) {
            // Park until the gate opens; the skipped rechecks could
            // only have hit this same branch again.
            if (blockProdSeq != kNoWaiter) {
                InFlight &prod = slot(blockProdSeq);
                inf.nextWaiter = prod.firstWaiter;
                prod.firstWaiter = seq;
            } else {
                wheel_[blockCycle & wheelMask_] |= slotBit(seq);
            }
            continue;
        }

        ++used[pool];
        count(inf.isFpSide ? SubsystemId::FPUnit : SubsystemId::IntALU);
        count(inf.isFpSide ? SubsystemId::FPReg : SubsystemId::IntReg);

        inf.issued = true;
        inf.completeCycle = now + execLatency(inf.op, now);
        // The consumers parked on this entry cannot issue before its
        // result is available: move them to the wheel at that cycle.
        SlotMask &woken = wheel_[inf.completeCycle & wheelMask_];
        for (std::uint64_t ws = inf.firstWaiter; ws != kNoWaiter;) {
            InFlight &waiter = slot(ws);
            woken |= slotBit(ws);
            ws = waiter.nextWaiter;
            waiter.nextWaiter = kNoWaiter;
        }
        inf.firstWaiter = kNoWaiter;
        if (cls == OpClass::FpDiv)
            fpDivBusyUntil_ = inf.completeCycle;
        if (cls == OpClass::Load &&
            inf.completeCycle - now > cfg_.memLat.l1 + 1) {
            ++missesInFlight;
            // eval-lint: allow(perf-hot-alloc) reserved to cfg_.mshrs
            // in run(); issue stops allocating MSHRs at that limit
            missComplete_.push_back(inf.completeCycle);
        }

        if (inf.isFpSide) {
            EVAL_ASSERT(fpQueueOcc_ > 0, "fp queue underflow");
            --fpQueueOcc_;
        } else {
            EVAL_ASSERT(intQueueOcc_ > 0, "int queue underflow");
            --intQueueOcc_;
        }

        // A mispredicted branch redirects the front end once it
        // resolves; FU replication adds one cycle to this loop.
        if (fetchBlockedOnBranch_ && seq == pendingBranchSeq_) {
            const std::uint64_t redirect =
                inf.completeCycle + 1 + cfg_.frontendDepth +
                (cfg_.fuReplicated ? 1 : 0);
            fetchBlockedOnBranch_ = false;
            fetchResumeCycle_ = std::max(fetchResumeCycle_, redirect);
        }

        // Width exhausted: nothing later can issue, and the remaining
        // candidates keep their bits.
        if (++issued == cfg_.issueWidth)
            break;
    }
}

void
Core::squashAll(std::uint64_t resumeCycle)
{
    // Return the squashed ops to the front of the fetch queue in
    // program order; they will be re-fetched and re-executed.
    for (std::uint64_t seq = nextSeq_; seq-- > robHead_;)
        fetchQueue_.push_front(slot(seq).op);
    robHead_ = nextSeq_;
    missComplete_.clear();
    cand_ = 0;
    std::fill(wheel_.begin(), wheel_.end(), SlotMask{0});

    intQueueOcc_ = fpQueueOcc_ = lsqOcc_ = 0;
    fetchBlockedOnBranch_ = false;
    fetchResumeCycle_ = std::max(fetchResumeCycle_, resumeCycle);
}

unsigned
Core::retire(std::uint64_t now, unsigned maxRetire)
{
    unsigned retired = 0;
    const unsigned width = std::min(cfg_.retireWidth, maxRetire);
    while (retired < width && robHead_ != nextSeq_) {
        const InFlight &head = slot(robHead_);
        if (!head.issued || head.completeCycle > now)
            break;

        if (isMemOp(head.op.cls)) {
            EVAL_ASSERT(lsqOcc_ > 0, "lsq underflow");
            --lsqOcc_;
        }

        ++stats_.instructions;
        ++retired;

        ++robHead_;

        // Diva checker: with probability errorProb_ the result was a
        // variation-induced timing error; the checker supplies the
        // correct value and the pipeline restarts after this
        // instruction (Sec 3.1).
        if (errorProb_ > 0.0 && rng_.bernoulli(errorProb_)) {
            ++stats_.errorRecoveries;
            stats_.recoveryStallCycles += errorPenalty_;
            squashAll(now + errorPenalty_);
            return retired;
        }
    }
    return retired;
}

CoreStats
Core::run(TraceSource &trace, std::uint64_t numInstructions)
{
    ScopedSpan span("arch.core_run");
    stats_ = CoreStats{};
    fetchQueue_.clear();
    missComplete_.clear();
    missComplete_.reserve(cfg_.mshrs);
    robHead_ = nextSeq_ = 0;
    cand_ = 0;
    std::fill(wheel_.begin(), wheel_.end(), SlotMask{0});
    fetchResumeCycle_ = 0;
    fetchBlockedOnBranch_ = false;
    intQueueOcc_ = fpQueueOcc_ = lsqOcc_ = 0;
    fpDivBusyUntil_ = 0;

    std::uint64_t now = 0;
    std::uint64_t lastProgress = 0;
    std::uint64_t lastInstCount = 0;

    while (stats_.instructions < numInstructions) {
        const unsigned remaining = static_cast<unsigned>(std::min<
            std::uint64_t>(numInstructions - stats_.instructions,
                           cfg_.retireWidth));
        const unsigned retired = retire(now, remaining);

        // Account a memory-stall cycle when retirement is fully
        // blocked by a load still waiting on main memory.
        if (retired == 0 && robHead_ != nextSeq_) {
            const InFlight &head = slot(robHead_);
            if (head.issued && head.op.cls == OpClass::Load &&
                head.completeCycle > now &&
                head.completeCycle - now >= cfg_.memLat.l2) {
                ++stats_.memStallCycles;
            }
        }

        issue(now);
        dispatch(trace, now);
        ++now;

        if (stats_.instructions != lastInstCount) {
            lastInstCount = stats_.instructions;
            lastProgress = now;
        } else if (now - lastProgress > 200000) {
            EVAL_PANIC("core deadlock at cycle ", now, " after ",
                       stats_.instructions, " instructions");
        }
    }
    stats_.cycles = now;
    return stats_;
}

} // namespace eval
