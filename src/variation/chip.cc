#include "variation/chip.hh"

#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace eval {

Chip::Chip(std::uint64_t id, std::shared_ptr<const Floorplan> floorplan,
           VariationMap map, Rng rng)
    : id_(id), floorplan_(std::move(floorplan)), map_(std::move(map)),
      rng_(rng)
{
    EVAL_ASSERT(floorplan_ != nullptr, "chip requires a floorplan");
}

double
Chip::subsystemVtSys(std::size_t core, SubsystemId id) const
{
    return map_.vtSystematicMean(floorplan_->subsystem(core, id).rect);
}

double
Chip::subsystemLeffSys(std::size_t core, SubsystemId id) const
{
    return map_.leffSystematicMean(floorplan_->subsystem(core, id).rect);
}

ChipFactory::ChipFactory(const ProcessParams &params, std::uint64_t seed,
                         std::size_t numCores)
    : params_(params),
      floorplan_(std::make_shared<Floorplan>(numCores)),
      rng_(seed)
{
    if (params_.vtSigmaOverMu > 0.0) {
        fieldGen_ = std::make_unique<CorrelatedFieldGenerator>(
            params_.gridSize, params_.phi);
    }
}

Chip
ChipFactory::manufactureChip(std::uint64_t id) const
{
    // Everything below depends only on (factory seed, id): split()
    // derives the chip stream without advancing rng_, so chips can be
    // stamped out in any order — or concurrently — with identical
    // results.
    Rng chipRng = rng_.split(id + 1);
    if (!fieldGen_) {
        return Chip(id, floorplan_, VariationMap::flat(params_),
                    chipRng.fork(0xC41F));
    }
    VariationMap map(params_, *fieldGen_, chipRng);
    return Chip(id, floorplan_, std::move(map), chipRng.fork(0xC41F));
}

Chip
ChipFactory::manufacture()
{
    return manufactureChip(nextId_++);
}

std::vector<Chip>
ChipFactory::manufacture(std::size_t count)
{
    // Reserve the id range up front, then fill the batch in parallel;
    // each task owns its slot.  (Chip has no default constructor, so
    // the map produces heap chips that are then moved into place.)
    const std::uint64_t base = nextId_;
    nextId_ += count;
    auto made = globalPool().parallelMap(
        count, [this, base](std::size_t i) {
            return std::make_unique<Chip>(
                manufactureChip(base + static_cast<std::uint64_t>(i)));
        });
    std::vector<Chip> chips;
    chips.reserve(count);
    for (auto &chip : made)
        chips.push_back(std::move(*chip));
    return chips;
}

Chip
ChipFactory::manufactureIdeal()
{
    return manufactureIdealAt(nextId_++);
}

Chip
ChipFactory::manufactureAt(std::uint64_t id) const
{
    return manufactureChip(id);
}

Chip
ChipFactory::manufactureIdealAt(std::uint64_t id) const
{
    // split(i) == fork(i) and neither advances rng_, so this emits
    // the exact chip manufactureIdeal() would have at cursor == id.
    Rng chipRng = rng_.split(id + 1);
    return Chip(id, floorplan_, VariationMap::flat(params_.withoutVariation()),
                chipRng.fork(0xC41F));
}

} // namespace eval
