#include "workload/profile.hh"

#include "util/logging.hh"

namespace eval {

namespace {

using Mix = std::array<double, kNumOpClasses>;

/** Build a mix from shares (IntAlu, IntMul, FpAdd, FpMul, FpDiv, Load,
 *  Store, Branch); normalized later by the generator. */
constexpr Mix
mix(double ialu, double imul, double fadd, double fmul, double fdiv,
    double load, double store, double branch)
{
    return {ialu, imul, fadd, fmul, fdiv, load, store, branch};
}

LocalityProfile
locality(double hot, double warm, double cold)
{
    LocalityProfile l;
    l.hotFraction = hot;
    l.warmFraction = warm;
    l.coldFraction = cold;
    return l;
}

AppProfile
makeInt(const std::string &name, Mix m, double ilp,
        std::size_t staticBranches, double biased, LocalityProfile loc,
        std::vector<PhaseSpec> phases)
{
    AppProfile p;
    p.name = name;
    p.isFp = false;
    p.mix = m;
    p.depDistanceMean = ilp;
    p.staticBranches = staticBranches;
    p.biasedBranchFraction = biased;
    p.locality = loc;
    p.phases = std::move(phases);
    return p;
}

AppProfile
makeFp(const std::string &name, Mix m, double ilp,
       std::size_t staticBranches, double biased, LocalityProfile loc,
       std::vector<PhaseSpec> phases)
{
    AppProfile p = makeInt(name, m, ilp, staticBranches, biased, loc,
                           std::move(phases));
    p.isFp = true;
    return p;
}

/** Common phase scripts. */
std::vector<PhaseSpec>
uniformPhases()
{
    return {};
}

std::vector<PhaseSpec>
twoPhases(double memSwing, double ilpSwing)
{
    return {
        {0.55, 1.0, 1.0, 1.0, 1.0},
        {0.45, memSwing, 1.0, ilpSwing, memSwing},
    };
}

std::vector<PhaseSpec>
threePhases()
{
    return {
        {0.40, 1.0, 1.0, 1.0, 1.0},
        {0.35, 1.5, 0.8, 0.8, 2.0},
        {0.25, 0.7, 1.2, 1.3, 0.5},
    };
}

std::vector<AppProfile>
buildSuite()
{
    std::vector<AppProfile> suite;

    // ----- SPECint 2000 -----
    suite.push_back(makeInt("gzip",
        mix(0.42, 0.01, 0, 0, 0, 0.25, 0.12, 0.20), 4.5, 300, 0.90,
        locality(0.850, 0.148, 0.002), twoPhases(1.3, 0.9)));
    suite.push_back(makeInt("vpr",
        mix(0.38, 0.02, 0.04, 0.02, 0, 0.28, 0.10, 0.16), 4.0, 800, 0.82,
        locality(0.720, 0.277, 0.003), twoPhases(1.2, 1.1)));
    suite.push_back(makeInt("gcc",
        mix(0.40, 0.01, 0, 0, 0, 0.26, 0.14, 0.19), 3.6, 4000, 0.78,
        locality(0.700, 0.296, 0.004), threePhases()));
    suite.push_back(makeInt("mcf",
        mix(0.35, 0.01, 0, 0, 0, 0.33, 0.08, 0.23), 3.0, 400, 0.80,
        locality(0.530, 0.350, 0.120), twoPhases(1.4, 0.9)));
    suite.push_back(makeInt("crafty",
        mix(0.48, 0.02, 0, 0, 0, 0.24, 0.09, 0.17), 5.5, 1500, 0.85,
        locality(0.880, 0.119, 0.001), uniformPhases()));
    suite.push_back(makeInt("parser",
        mix(0.40, 0.01, 0, 0, 0, 0.27, 0.12, 0.20), 3.8, 1200, 0.80,
        locality(0.750, 0.246, 0.004), twoPhases(1.25, 1.0)));
    suite.push_back(makeInt("eon",
        mix(0.36, 0.02, 0.08, 0.06, 0.01, 0.25, 0.11, 0.11), 5.0, 900,
        0.88, locality(0.860, 0.1395, 0.0005), uniformPhases()));
    suite.push_back(makeInt("perlbmk",
        mix(0.41, 0.01, 0, 0, 0, 0.26, 0.13, 0.19), 4.2, 2500, 0.83,
        locality(0.760, 0.237, 0.003), threePhases()));
    suite.push_back(makeInt("gap",
        mix(0.44, 0.03, 0, 0, 0, 0.25, 0.11, 0.17), 4.8, 700, 0.86,
        locality(0.720, 0.276, 0.004), twoPhases(1.3, 1.1)));
    suite.push_back(makeInt("vortex",
        mix(0.38, 0.01, 0, 0, 0, 0.28, 0.15, 0.18), 4.4, 2000, 0.84,
        locality(0.700, 0.296, 0.004), threePhases()));
    suite.push_back(makeInt("bzip2",
        mix(0.45, 0.01, 0, 0, 0, 0.24, 0.12, 0.18), 4.6, 350, 0.88,
        locality(0.780, 0.215, 0.005), twoPhases(1.35, 0.95)));
    suite.push_back(makeInt("twolf",
        mix(0.40, 0.03, 0.02, 0.01, 0, 0.27, 0.10, 0.17), 3.9, 900, 0.81,
        locality(0.730, 0.267, 0.003), uniformPhases()));

    // ----- SPECfp 2000 -----
    suite.push_back(makeFp("wupwise",
        mix(0.18, 0.01, 0.22, 0.20, 0.01, 0.24, 0.10, 0.04), 7.5, 200,
        0.96, locality(0.720, 0.274, 0.006), uniformPhases()));
    suite.push_back(makeFp("swim",
        mix(0.12, 0.01, 0.26, 0.22, 0.01, 0.24, 0.11, 0.03), 8.5, 120,
        0.97, locality(0.600, 0.366, 0.034), twoPhases(1.2, 1.0)));
    suite.push_back(makeFp("mgrid",
        mix(0.14, 0.01, 0.25, 0.21, 0.01, 0.26, 0.09, 0.03), 8.0, 150,
        0.97, locality(0.620, 0.368, 0.012), uniformPhases()));
    suite.push_back(makeFp("applu",
        mix(0.15, 0.01, 0.24, 0.20, 0.02, 0.25, 0.10, 0.03), 7.8, 250,
        0.96, locality(0.600, 0.378, 0.022), twoPhases(1.25, 1.05)));
    suite.push_back(makeFp("mesa",
        mix(0.28, 0.02, 0.16, 0.12, 0.01, 0.24, 0.10, 0.07), 5.8, 600,
        0.90, locality(0.820, 0.1785, 0.0015), uniformPhases()));
    suite.push_back(makeFp("galgel",
        mix(0.14, 0.01, 0.27, 0.22, 0.01, 0.24, 0.08, 0.03), 8.2, 180,
        0.96, locality(0.650, 0.342, 0.008), threePhases()));
    suite.push_back(makeFp("art",
        mix(0.20, 0.01, 0.22, 0.18, 0.00, 0.28, 0.06, 0.05), 6.5, 90,
        0.95, locality(0.480, 0.430, 0.090), twoPhases(1.15, 1.0)));
    suite.push_back(makeFp("equake",
        mix(0.18, 0.01, 0.23, 0.19, 0.02, 0.26, 0.07, 0.04), 6.8, 220,
        0.94, locality(0.550, 0.418, 0.032), twoPhases(1.3, 0.9)));
    suite.push_back(makeFp("ammp",
        mix(0.19, 0.01, 0.22, 0.18, 0.03, 0.26, 0.07, 0.04), 6.2, 320,
        0.93, locality(0.620, 0.366, 0.014), uniformPhases()));
    suite.push_back(makeFp("lucas",
        mix(0.13, 0.02, 0.26, 0.23, 0.01, 0.24, 0.08, 0.03), 8.8, 100,
        0.97, locality(0.600, 0.378, 0.022), uniformPhases()));
    suite.push_back(makeFp("sixtrack",
        mix(0.20, 0.02, 0.23, 0.20, 0.02, 0.22, 0.08, 0.03), 7.0, 400,
        0.95, locality(0.840, 0.159, 0.001), uniformPhases()));
    suite.push_back(makeFp("apsi",
        mix(0.17, 0.01, 0.24, 0.20, 0.02, 0.24, 0.09, 0.03), 7.4, 350,
        0.95, locality(0.660, 0.329, 0.011), threePhases()));

    return suite;
}

} // namespace

const std::vector<AppProfile> &
specSuite()
{
    static const std::vector<AppProfile> suite = buildSuite();
    return suite;
}

const AppProfile &
appByName(const std::string &name)
{
    for (const auto &p : specSuite()) {
        if (p.name == name)
            return p;
    }
    EVAL_FATAL("unknown application: ", name);
}

} // namespace eval
