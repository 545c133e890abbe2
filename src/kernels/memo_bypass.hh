/**
 * @file
 * Per-thread bypass of the two exact-bit memos: the PE memo behind
 * StageErrorModel::errorRatePerAccess (timing/error_model) and the
 * solved-lane memo of solveThermalLanes (kernels/thermal_batch).
 *
 * Both memos pay when the same exact (knob, temperature) tuples come
 * back, as in online Exh-Dyn (retune cycles and phases re-query one
 * knob grid).  FC label generation draws continuous random (TH,
 * alpha_f) per example, so its queries almost never repeat: a traced
 * Fig 13 FuzzyDyn run read a thermal hit ratio of 0.006 and a PE hit
 * ratio of 0.127 while every miss still hashed and wrote a slot.  A
 * label loop wraps itself in a ScopedMemoBypass; the memos are
 * exact-bit, so skipping them changes no result.  The bypass is
 * thread-local: another thread's queries keep their memos, and scopes
 * nest (each restores the state it found).
 *
 * setPeCacheEnabled / setThermalCacheEnabled remain the process-wide
 * switches; the bypass only narrows them for the current thread.
 */

#pragma once

namespace eval {

class ScopedMemoBypass
{
  public:
    ScopedMemoBypass() : outer_(active_) { active_ = true; }
    ~ScopedMemoBypass() { active_ = outer_; }
    ScopedMemoBypass(const ScopedMemoBypass &) = delete;
    ScopedMemoBypass &operator=(const ScopedMemoBypass &) = delete;

    /** Whether the current thread is inside a bypass scope. */
    static bool active() { return active_; }

  private:
    static inline thread_local bool active_ = false;
    bool outer_;
};

} // namespace eval
