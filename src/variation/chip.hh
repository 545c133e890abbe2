/**
 * @file
 * A manufactured chip sample: floorplan + personalized variation map,
 * and a factory that stamps out chip populations (the paper repeats
 * each experiment over 100 chips with distinct systematic maps).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.hh"
#include "variation/floorplan.hh"
#include "variation/process_params.hh"
#include "variation/variation_map.hh"

namespace eval {

/** One manufactured die. */
class Chip
{
  public:
    Chip(std::uint64_t id, std::shared_ptr<const Floorplan> floorplan,
         VariationMap map, Rng rng);

    std::uint64_t id() const { return id_; }
    const Floorplan &floorplan() const { return *floorplan_; }
    const VariationMap &map() const { return map_; }
    const ProcessParams &params() const { return map_.params(); }

    /** Chip-local random stream (path populations etc.). */
    Rng forkRng(std::uint64_t label) const { return rng_.fork(label); }

    /** Current chip-local generator (snapshot serialization; fork is
     *  const, so the state only changes when the chip is rebuilt). */
    const Rng &rng() const { return rng_; }

    /** Mean systematic Vt of a subsystem (volts at reference temp). */
    double subsystemVtSys(std::size_t core, SubsystemId id) const;

    /** Mean systematic Leff of a subsystem (normalized). */
    double subsystemLeffSys(std::size_t core, SubsystemId id) const;

  private:
    std::uint64_t id_;
    std::shared_ptr<const Floorplan> floorplan_;
    VariationMap map_;
    mutable Rng rng_;
};

/** Generates reproducible chip populations. */
class ChipFactory
{
  public:
    ChipFactory(const ProcessParams &params, std::uint64_t seed,
                std::size_t numCores = 4);

    /** Manufacture the next chip in the population. */
    Chip manufacture();

    /**
     * Manufacture a batch of @p count chips.  Chips are generated in
     * parallel on the global thread pool; chip @p i depends only on
     * the factory seed and its id (Rng::split), so the population is
     * identical to @p count serial manufacture() calls for any thread
     * count.
     */
    std::vector<Chip> manufacture(std::size_t count);

    /** An ideal chip with zero variation (NoVar environment). */
    Chip manufactureIdeal();

    /**
     * Manufacture the chip with identity @p id without advancing the
     * factory cursor.  Pure in (factory seed, id) — byte-identical to
     * the chip a fresh factory would emit as its @p id'th
     * manufacture() call — so a resumed campaign can stamp out any
     * block of the population lazily and still match an
     * uninterrupted run.
     */
    Chip manufactureAt(std::uint64_t id) const;

    /**
     * The ideal chip manufactureIdeal() would emit when the cursor
     * sits at @p id, without advancing the cursor.  The ideal chip's
     * personality depends on its id, and the experiment driver always
     * manufactures it *after* the population, so callers must pass
     * the population size to reproduce the monolithic reference
     * (see ExperimentContext).
     */
    Chip manufactureIdealAt(std::uint64_t id) const;

    const ProcessParams &params() const { return params_; }
    const std::shared_ptr<const Floorplan> &floorplan() const
    {
        return floorplan_;
    }

  private:
    /** Stamp out the chip with identity @p id (pure in (seed, id)). */
    Chip manufactureChip(std::uint64_t id) const;

    ProcessParams params_;
    std::shared_ptr<const Floorplan> floorplan_;
    std::unique_ptr<CorrelatedFieldGenerator> fieldGen_;
    Rng rng_;
    std::uint64_t nextId_ = 0;
};

} // namespace eval

