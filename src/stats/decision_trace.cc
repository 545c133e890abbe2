#include "stats/decision_trace.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace eval {

DecisionTrace::DecisionTrace(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
}

DecisionTrace &
DecisionTrace::global()
{
    static DecisionTrace trace;
    return trace;
}

namespace {

/** Per-thread ambient context: parallel chip tasks each set their
 *  own without synchronizing (see DecisionTrace::setContext). */
thread_local int traceChip = -1;
thread_local int traceCore = -1;

} // namespace

void
DecisionTrace::setContext(int chip, int core)
{
    traceChip = chip;
    traceCore = core;
}

void
DecisionTrace::record(DecisionRecord r)
{
    if (!enabled())
        return;
    if (r.chip < 0)
        r.chip = traceChip;
    if (r.core < 0)
        r.core = traceCore;
    std::lock_guard<std::mutex> lock(mutex_);
    r.sequence = total_++;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(r));
    } else {
        ring_[head_] = std::move(r);
    }
    head_ = (head_ + 1) % capacity_;
}

std::size_t
DecisionTrace::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t
DecisionTrace::totalRecorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

const DecisionRecord &
DecisionTrace::at(std::size_t i) const
{
    std::size_t size = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        size = ring_.size();
        if (i < size) {
            // Until the ring wraps, head_ == size and oldest is index 0.
            const std::size_t base = size < capacity_ ? 0 : head_;
            return ring_[(base + i) % size];
        }
    }
    // Fail with the lock released: the exit flush writes this trace.
    EVAL_PANIC("trace index ", i, " out of range (size ", size, ")");
}

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

std::string
DecisionTrace::jsonl() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        const std::size_t base =
            ring_.size() < capacity_ ? 0 : head_;
        const DecisionRecord &r = ring_[(base + i) % ring_.size()];
        os << "{\"seq\": " << r.sequence
           << ", \"chip\": " << r.chip
           << ", \"core\": " << r.core
           << ", \"phase_id\": " << r.phaseId
           << ", \"reused_saved\": " << (r.reusedSaved ? "true" : "false")
           << ", \"th_c\": " << num(r.thC)
           << ", \"freq_ghz\": " << num(r.freqHz / 1e9)
           << ", \"mean_vdd_v\": " << num(r.meanVddV)
           << ", \"mean_vbb_v\": " << num(r.meanVbbV)
           << ", \"small_queue\": " << (r.smallQueue ? "true" : "false")
           << ", \"low_slope_fu\": " << (r.lowSlopeFu ? "true" : "false")
           << ", \"predicted_pe\": " << num(r.predictedPe)
           << ", \"realized_pe\": " << num(r.realizedPe)
           << ", \"predicted_perf\": " << num(r.predictedPerf)
           << ", \"power_w\": " << num(r.powerW)
           << ", \"outcome\": \"" << r.outcome << "\""
           << ", \"retune_steps\": " << r.retuneSteps
           << "}\n";
    }
    return os.str();
}

bool
DecisionTrace::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open '", path, "' for writing");
        return false;
    }
    const std::string text = jsonl();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!ok)
        warn("short write to '", path, "'");
    return ok;
}

void
DecisionTrace::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    head_ = 0;
    total_ = 0;
}

} // namespace eval
