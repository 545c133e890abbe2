#include "arch/core.hh"

#include <algorithm>
#include <cstring>

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
    for (unsigned slot = 0; slot < cfg_.fetchWidth; ++slot) {
        if (rob_.size() >= cfg_.robSize)
            break;

        // Obtain the next op (replayed ops first).
        MicroOp op;
        if (!fetchQueue_.empty()) {
            op = fetchQueue_.front();
        } else {
            if (!trace.next(op))
                break;
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

        InFlight inf;
        inf.op = op;
        inf.seq = nextSeq_++;
        inf.isFpSide = fpSide;
        rob_.push_back(inf);
        // Seqs only grow, so appending keeps the candidates sorted.
        issueCand_.push_back(IssueCand{inf.seq, op.cls});

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
                pendingBranchSeq_ = inf.seq;
                break;
            }
        }
    }
}

void
Core::issue(std::uint64_t now)
{
    unsigned issued = 0;
    unsigned aluUsed = 0, mulUsed = 0, faddUsed = 0, fmulUsed = 0;

    // MSHR occupancy: drop completed fills (now is monotone within a
    // run, so a pruned entry can never count again), count the rest.
    missComplete_.erase(
        std::remove_if(missComplete_.begin(), missComplete_.end(),
                       [now](std::uint64_t c) { return c <= now; }),
        missComplete_.end());
    unsigned missesInFlight =
        static_cast<unsigned>(missComplete_.size());

    // Wake parked entries whose gate has opened: sleepers whose wake
    // cycle has arrived, and consumers whose producer issued last
    // cycle.  Merging the wakes back in seq order keeps the candidate
    // visit order identical to a full ROB scan.
    const auto byWake = [](const Sleeper &a, const Sleeper &b) {
        return a.wakeCycle > b.wakeCycle;
    };
    wakeScratch_.clear();
    while (!sleepers_.empty() && sleepers_.front().wakeCycle <= now) {
        std::pop_heap(sleepers_.begin(), sleepers_.end(), byWake);
        wakeScratch_.push_back(
            IssueCand{sleepers_.back().seq, sleepers_.back().cls});
        sleepers_.pop_back();
    }
    if (!pendingWake_.empty()) {
        wakeScratch_.insert(wakeScratch_.end(), pendingWake_.begin(),
                            pendingWake_.end());
        pendingWake_.clear();
    }
    if (!wakeScratch_.empty()) {
        // A cycle wakes a handful of entries at most: insertion sort
        // beats a general sort at this size, and a backward
        // two-pointer merge into the widened vector avoids
        // inplace_merge's temporary buffer.
        for (std::size_t i = 1; i < wakeScratch_.size(); ++i) {
            const IssueCand v = wakeScratch_[i];
            std::size_t j = i;
            while (j > 0 && wakeScratch_[j - 1].seq > v.seq) {
                wakeScratch_[j] = wakeScratch_[j - 1];
                --j;
            }
            wakeScratch_[j] = v;
        }
        const std::size_t oldN = issueCand_.size();
        issueCand_.resize(oldN + wakeScratch_.size());
        std::ptrdiff_t a = static_cast<std::ptrdiff_t>(oldN) - 1;
        std::ptrdiff_t b =
            static_cast<std::ptrdiff_t>(wakeScratch_.size()) - 1;
        std::ptrdiff_t w =
            static_cast<std::ptrdiff_t>(issueCand_.size()) - 1;
        while (b >= 0) {
            if (a >= 0 && issueCand_[a].seq > wakeScratch_[b].seq)
                issueCand_[w--] = issueCand_[a--];
            else
                issueCand_[w--] = wakeScratch_[b--];
        }
    }

    // Visit the candidates in seq (= ROB) order, compacting in place:
    // entries that issue or park drop out, the rest stay for the next
    // cycle.  A class-level structural gate runs first so an entry
    // whose functional-unit class is already exhausted this cycle is
    // kept without touching the ROB or rechecking dependencies — the
    // full scan would have reached the same `continue` after the dep
    // check, and the dep check writes nothing, so skipping it is
    // unobservable.
    std::size_t keepCand = 0;
    const std::size_t numCand = issueCand_.size();
    for (std::size_t r = 0; r < numCand; ++r) {
        const IssueCand c = issueCand_[r];
        if (issued >= cfg_.issueWidth) {
            // Width exhausted: nothing later can issue — bulk-keep
            // the remaining tail in one move.
            std::memmove(issueCand_.data() + keepCand,
                         issueCand_.data() + r,
                         (numCand - r) * sizeof(IssueCand));
            keepCand += numCand - r;
            break;
        }

        bool fuBlocked = false;
        switch (c.cls) {
          case OpClass::Load:
            // A load that may miss needs an MSHR; when all are busy
            // the load waits (memory-level-parallelism limit).
            fuBlocked = missesInFlight >= cfg_.mshrs ||
                        aluUsed >= cfg_.intAluCount;
            break;
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Store:
            fuBlocked = aluUsed >= cfg_.intAluCount;
            break;
          case OpClass::IntMul:
            fuBlocked = mulUsed >= cfg_.intMulCount;
            break;
          case OpClass::FpAdd:
            fuBlocked = faddUsed >= cfg_.fpAddCount;
            break;
          case OpClass::FpMul:
            fuBlocked = fmulUsed >= cfg_.fpMulCount;
            break;
          case OpClass::FpDiv:
            fuBlocked = fmulUsed >= cfg_.fpMulCount ||
                        fpDivBusyUntil_ > now;
            break;
          default:
            EVAL_PANIC("unknown op class in issue");
        }
        if (fuBlocked) {
            // Structural conflicts carry no wake event — stay a
            // candidate and retry next cycle.
            issueCand_[keepCand++] = c;
            continue;
        }

        InFlight &inf = rob_[c.seq - rob_.front().seq];

        // Operand readiness via backward dependency distances.
        bool ready = true;
        std::uint64_t readyCycle = 0;
        std::uint64_t blockCycle = 0;
        std::uint64_t blockProdSeq = kNoWaiter;
        auto checkDep = [&](std::uint16_t dist) {
            if (!ready || dist == 0)
                return;
            if (dist > inf.seq)
                return;   // producer predates the trace window
            const std::uint64_t prodSeq = inf.seq - dist;
            const std::uint64_t oldestSeq = rob_.front().seq;
            if (prodSeq < oldestSeq)
                return;   // producer already retired
            const InFlight &prod = rob_[prodSeq - oldestSeq];
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
                return;
            }
            readyCycle = std::max(readyCycle, prod.completeCycle);
        };
        checkDep(inf.op.src1Dist);
        checkDep(inf.op.src2Dist);
        if (!ready) {
            // Park until the gate opens; the skipped rechecks could
            // only have hit this same branch again.
            if (blockProdSeq != kNoWaiter) {
                InFlight &prod =
                    rob_[blockProdSeq - rob_.front().seq];
                inf.nextWaiter = prod.firstWaiter;
                prod.firstWaiter = c.seq;
            } else {
                sleepers_.push_back(Sleeper{blockCycle, c.seq, c.cls});
                std::push_heap(sleepers_.begin(), sleepers_.end(), byWake);
            }
            continue;
        }

        // The structural gate above already reserved this entry a
        // unit; allocate it and issue.
        switch (inf.op.cls) {
          case OpClass::Load:
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Store:
            ++aluUsed;
            count(SubsystemId::IntALU);
            count(SubsystemId::IntReg);
            break;
          case OpClass::IntMul:
            ++mulUsed;
            count(SubsystemId::IntALU);
            count(SubsystemId::IntReg);
            break;
          case OpClass::FpAdd:
            ++faddUsed;
            count(SubsystemId::FPUnit);
            count(SubsystemId::FPReg);
            break;
          case OpClass::FpMul:
          case OpClass::FpDiv:
            ++fmulUsed;
            count(SubsystemId::FPUnit);
            count(SubsystemId::FPReg);
            break;
          default:
            EVAL_PANIC("unknown op class in issue");
        }

        inf.issued = true;
        // Wake the consumers parked on this entry; they re-enter the
        // candidate list next cycle, by which point this result is at
        // least a cycle from completing — exactly when the full scan
        // would first have seen them unblocked.
        for (std::uint64_t ws = inf.firstWaiter; ws != kNoWaiter;) {
            InFlight &waiter = rob_[ws - rob_.front().seq];
            pendingWake_.push_back(IssueCand{ws, waiter.op.cls});
            const std::uint64_t nxt = waiter.nextWaiter;
            waiter.nextWaiter = kNoWaiter;
            ws = nxt;
        }
        inf.firstWaiter = kNoWaiter;
        inf.completeCycle = now + execLatency(inf.op, now);
        if (inf.op.cls == OpClass::FpDiv)
            fpDivBusyUntil_ = inf.completeCycle;
        if (inf.op.cls == OpClass::Load &&
            inf.completeCycle - now > cfg_.memLat.l1 + 1) {
            inf.missInFlight = true;
            ++missesInFlight;
            missComplete_.push_back(inf.completeCycle);
        }
        ++issued;

        if (inf.isFpSide) {
            EVAL_ASSERT(fpQueueOcc_ > 0, "fp queue underflow");
            --fpQueueOcc_;
        } else {
            EVAL_ASSERT(intQueueOcc_ > 0, "int queue underflow");
            --intQueueOcc_;
        }

        // A mispredicted branch redirects the front end once it
        // resolves; FU replication adds one cycle to this loop.
        if (fetchBlockedOnBranch_ && inf.seq == pendingBranchSeq_) {
            const std::uint64_t redirect =
                inf.completeCycle + 1 + cfg_.frontendDepth +
                (cfg_.fuReplicated ? 1 : 0);
            fetchBlockedOnBranch_ = false;
            fetchResumeCycle_ = std::max(fetchResumeCycle_, redirect);
        }
    }
    issueCand_.resize(keepCand);
}

void
Core::squashAll(std::uint64_t resumeCycle)
{
    // Return the squashed ops to the front of the fetch queue in
    // program order; they will be re-fetched and re-executed.
    for (std::size_t i = rob_.size(); i-- > 0;)
        fetchQueue_.push_front(rob_[i].op);
    rob_.clear();
    missComplete_.clear();
    issueCand_.clear();
    sleepers_.clear();
    pendingWake_.clear();

    intQueueOcc_ = fpQueueOcc_ = lsqOcc_ = 0;
    fetchBlockedOnBranch_ = false;
    fetchResumeCycle_ = std::max(fetchResumeCycle_, resumeCycle);
}

unsigned
Core::retire(std::uint64_t now, unsigned maxRetire)
{
    unsigned retired = 0;
    const unsigned width = std::min(cfg_.retireWidth, maxRetire);
    while (retired < width && !rob_.empty()) {
        InFlight &head = rob_.front();
        if (!head.issued || head.completeCycle > now)
            break;

        if (isMemOp(head.op.cls)) {
            EVAL_ASSERT(lsqOcc_ > 0, "lsq underflow");
            --lsqOcc_;
        }

        ++stats_.instructions;
        ++retired;

        rob_.pop_front();

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
    rob_.clear();
    fetchQueue_.clear();
    missComplete_.clear();
    missComplete_.reserve(cfg_.mshrs);
    issueCand_.clear();
    issueCand_.reserve(cfg_.robSize);
    sleepers_.clear();
    sleepers_.reserve(cfg_.robSize);
    pendingWake_.clear();
    pendingWake_.reserve(cfg_.robSize);
    wakeScratch_.reserve(cfg_.robSize);
    nextSeq_ = 0;
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
        if (retired == 0 && !rob_.empty()) {
            const InFlight &head = rob_.front();
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
