/**
 * @file
 * The micro-op vocabulary shared by the workload generator and the
 * core model.  Traces are streams of MicroOps; dependencies are
 * expressed as backward distances in the dynamic instruction stream
 * (a standard trace-driven simplification).
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstddef>

namespace eval {

/** Micro-op classes executed by the core. */
enum class OpClass : std::uint8_t {
    IntAlu, IntMul, FpAdd, FpMul, FpDiv, Load, Store, Branch,
    NumClasses
};

constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::NumClasses);

/** True for loads and stores. */
constexpr bool
isMemOp(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** True for floating-point ops. */
constexpr bool
isFpOp(OpClass c)
{
    return c == OpClass::FpAdd || c == OpClass::FpMul ||
           c == OpClass::FpDiv;
}

/** One dynamic micro-op. */
struct MicroOp
{
    OpClass cls = OpClass::IntAlu;
    std::uint64_t pc = 0;       ///< static instruction address
    std::uint64_t addr = 0;     ///< effective address for mem ops
    bool taken = false;         ///< actual outcome for branches
    /** Backward dependency distances in dynamic ops; 0 = no operand. */
    std::uint16_t src1Dist = 0;
    std::uint16_t src2Dist = 0;
};

/** Pull-based instruction source fed to the core model. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next micro-op; returns false at end of trace. */
    virtual bool next(MicroOp &op) = 0;
};

} // namespace eval

