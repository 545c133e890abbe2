/**
 * @file
 * Application behaviour profiles for the synthetic SPEC CPU2000-like
 * workload suite.
 *
 * We do not have SPEC binaries or an ISA front-end, so each benchmark
 * is described by the statistics that drive the core model: opcode
 * mix, branch predictability, memory locality (expressed as region
 * residency, which the real cache hierarchy turns into miss rates),
 * instruction-level parallelism (dependency distances), and a phase
 * script that modulates these over the run (exercising the phase
 * detector and dynamic adaptation).
 */

#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "arch/isa.hh"

namespace eval {

/** Memory-locality description: probabilities of touching each
 *  working-set region; the regions' sizes determine where accesses
 *  hit in a real cache hierarchy. */
struct LocalityProfile
{
    double hotFraction = 0.75;    ///< fits in L1
    double warmFraction = 0.20;   ///< fits in L2
    double coldFraction = 0.05;   ///< streams through memory
    std::size_t hotBytes = 32 * 1024;
    std::size_t warmBytes = 128 * 1024;
    std::size_t coldBytes = 64 * 1024 * 1024;
};

/** One behaviour phase: multipliers over the base profile. */
struct PhaseSpec
{
    double weight = 1.0;          ///< share of the run
    double memIntensity = 1.0;    ///< scales load/store mix share
    double fpIntensity = 1.0;     ///< scales FP mix share
    double ilpScale = 1.0;        ///< scales dependency distances
    double coldScale = 1.0;       ///< scales cold-region residency
};

/** Full description of one benchmark. */
struct AppProfile
{
    std::string name;
    bool isFp = false;            ///< SPECfp vs SPECint

    /** Base opcode mix (normalized at generation time). */
    std::array<double, kNumOpClasses> mix{};

    /** Mean backward dependency distance (higher = more ILP). */
    double depDistanceMean = 5.0;

    /** Number of distinct static branches (aliasing pressure). */
    std::size_t staticBranches = 512;
    /** Fraction of branches that are strongly biased (predictable). */
    double biasedBranchFraction = 0.85;

    LocalityProfile locality;

    /** Phase script; empty = single uniform phase. */
    std::vector<PhaseSpec> phases;
};

/** The 24-app synthetic SPEC CPU2000 suite. */
const std::vector<AppProfile> &specSuite();

/** Look up a profile by name (fatal on unknown). */
const AppProfile &appByName(const std::string &name);

} // namespace eval

