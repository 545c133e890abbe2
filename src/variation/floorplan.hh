/**
 * @file
 * Core floorplan: the 15 subsystems of Figure 7(b), their circuit type
 * (logic / memory / mixed), area share, and placement on the die.
 *
 * The chip is a unit square holding a 4-core CMP; each core occupies
 * one quadrant, and the subsystem rectangles are laid out within the
 * core's quadrant.  Coordinates are in chip units (0..1).
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace eval {

/** Circuit style of a pipeline subsystem; sets its error-onset shape. */
enum class StageType { Logic, Memory, Mixed };

/** Printable name for a StageType. */
const char *stageTypeName(StageType t);

/** Identifiers for the 15 per-core subsystems (Figure 7(b)). */
enum class SubsystemId : std::size_t {
    Dcache, DTLB, FPQ, FPReg, LdStQ, FPUnit, FPMap, IntALU,
    IntReg, IntQ, IntMap, ITLB, Icache, BranchPred, Decode,
    NumSubsystems
};

constexpr std::size_t kNumSubsystems =
    static_cast<std::size_t>(SubsystemId::NumSubsystems);

/** Axis-aligned rectangle in chip coordinates. */
struct Rect
{
    double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;

    double width() const { return x1 - x0; }
    double height() const { return y1 - y0; }
    double area() const { return width() * height(); }
};

/** Static description of one subsystem. */
struct SubsystemInfo
{
    SubsystemId id;
    std::string name;
    StageType type;
    double areaFraction;  ///< fraction of core area
    Rect rect;            ///< placement on the chip, filled by Floorplan
    bool isFpOnly;        ///< adapted only for FP applications
    bool isIntOnly;       ///< adapted only for integer applications
};

/**
 * The per-core floorplan replicated in each quadrant of the chip.
 *
 * Area fractions approximate an Athlon64-class 3-issue core: caches
 * dominate, the integer ALU cluster is 0.55% of processor area and the
 * FP adder+multiplier 1.90% (Figure 7(a)).
 */
class Floorplan
{
  public:
    /** Build the floorplan for the given core count (quadrant layout). */
    explicit Floorplan(std::size_t numCores = 4);

    std::size_t numCores() const { return numCores_; }

    /** Subsystem descriptor for core @p core. */
    const SubsystemInfo &subsystem(std::size_t core, SubsystemId id) const;

    /** All subsystems of one core. */
    const std::vector<SubsystemInfo> &coreSubsystems(std::size_t core) const;

    /** Look up a subsystem id by name; fatal on unknown name. */
    static SubsystemId idByName(const std::string &name);

  private:
    std::size_t numCores_;
    /** [core][subsystem] */
    std::vector<std::vector<SubsystemInfo>> subsystems_;
};

} // namespace eval

