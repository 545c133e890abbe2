/**
 * @file
 * Ring-buffer trace of adaptation decisions: every controller
 * invocation (new-phase optimization or saved-configuration reuse)
 * appends one record capturing the inputs it saw, the knob vector it
 * chose, and how the hardware's retuning cycle corrected it.
 *
 * The trace is disabled by default: record() then costs a single
 * branch and nothing is stored.  When enabled (the --trace-out flag,
 * or EVAL_TRACE_OUT for benches) the most recent `capacity` records
 * are kept and can be exported as JSONL, one decision per line.
 */

#pragma once

// eval-lint: counters-only the enable flag and drop counter are independent
// observational atomics; record payloads are guarded by the ring mutex.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace eval {

/** One adaptation decision (Sec 4.3 control loop). */
struct DecisionRecord
{
    std::uint64_t sequence = 0;  ///< stamped by DecisionTrace
    int chip = -1;               ///< from the trace context, -1 unknown
    int core = -1;
    std::uint64_t phaseId = 0;
    bool reusedSaved = false;    ///< configuration came from the table

    double thC = 0.0;            ///< heat-sink temperature input
    double freqHz = 0.0;         ///< chosen core frequency
    double meanVddV = 0.0;       ///< mean per-subsystem supply chosen
    double meanVbbV = 0.0;       ///< mean per-subsystem body bias
    bool smallQueue = false;
    bool lowSlopeFu = false;

    double predictedPe = 0.0;    ///< controller's error-rate estimate
    double realizedPe = 0.0;     ///< error rate after retuning
    double predictedPerf = 0.0;  ///< Eq 5 estimate at the chosen point
    double powerW = 0.0;         ///< core power after retuning

    std::string outcome;         ///< retuneOutcomeName of the cycle
    unsigned retuneSteps = 0;    ///< frequency moves during retuning
};

/**
 * Bounded in-memory decision log with JSONL export.  Safe for
 * concurrent record() calls from parallel per-chip tasks: appends are
 * mutex-guarded, the enabled check is one relaxed atomic load, and
 * the ambient (chip, core) context is per-thread, so each task's
 * records carry the chip it is simulating.  Under a multi-threaded
 * run the interleaving (and thus sequence stamps) follows completion
 * order, not chip order.
 */
class DecisionTrace
{
  public:
    static constexpr std::size_t kDefaultCapacity = 8192;

    explicit DecisionTrace(std::size_t capacity = kDefaultCapacity);

    /** The simulator-wide trace written by the controllers. */
    static DecisionTrace &global();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** Ambient (chip, core) stamped onto records from the calling
     *  thread (thread-local, so parallel chip tasks do not clobber
     *  each other's context). */
    void setContext(int chip, int core);

    /** Append a decision (no-op when disabled). */
    void record(DecisionRecord r);

    /** Records currently buffered (<= capacity). */
    std::size_t size() const;

    /** Total records ever accepted, including overwritten ones. */
    std::uint64_t totalRecorded() const;

    /** Buffered record @p i, oldest first. */
    const DecisionRecord &at(std::size_t i) const;

    /** Export the buffer as JSONL, oldest first. */
    std::string jsonl() const;
    bool writeJsonl(const std::string &path) const;

    void clear();

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;   ///< guards the ring fields below
    const std::size_t capacity_;
    std::size_t head_ = 0;       ///< next write position
    std::uint64_t total_ = 0;
    std::vector<DecisionRecord> ring_;
};

} // namespace eval

