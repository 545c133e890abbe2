/** Tests for the out-of-order core model. */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "arch/core.hh"
#include "workload/generator.hh"

namespace eval {
namespace {

/** Trace of identical independent ALU ops. */
class IndependentAluTrace : public TraceSource
{
  public:
    bool
    next(MicroOp &op) override
    {
        op = MicroOp{};
        op.cls = OpClass::IntAlu;
        op.pc = 0x1000 + (count_++ % 512) * 4;
        op.src1Dist = 0;
        op.src2Dist = 0;
        return true;
    }

  private:
    std::uint64_t count_ = 0;
};

/** Serial dependency chain: each op needs the previous one. */
class SerialChainTrace : public TraceSource
{
  public:
    bool
    next(MicroOp &op) override
    {
        op = MicroOp{};
        op.cls = OpClass::IntAlu;
        op.pc = 0x2000;
        op.src1Dist = 1;
        return true;
    }
};

TEST(Core, IndependentOpsApproachIssueWidth)
{
    CoreConfig cfg;
    Core core(cfg, 1);
    IndependentAluTrace trace;
    core.run(trace, 5000);   // warm the instruction cache
    const CoreStats s = core.run(trace, 30000);
    // 3-wide with 3 ALUs: IPC should be close to 3.
    EXPECT_GT(s.ipc(), 2.5);
}

TEST(Core, SerialChainRunsAtOneIpcMax)
{
    CoreConfig cfg;
    Core core(cfg, 1);
    SerialChainTrace trace;
    const CoreStats s = core.run(trace, 20000);
    EXPECT_LE(s.ipc(), 1.05);
    EXPECT_GT(s.ipc(), 0.5);
}

TEST(Core, SmallerQueueNeverFaster)
{
    const AppProfile &app = appByName("crafty");
    double ipcFull, ipcSmall;
    {
        CoreConfig cfg;
        SyntheticTrace t(app, 7);
        t.pinPhase(0);
        Core core(cfg, 2);
        core.run(t, 40000);
        ipcFull = core.run(t, 80000).ipc();
    }
    {
        CoreConfig cfg;
        cfg.queueCapacityFraction = 0.75;
        SyntheticTrace t(app, 7);
        t.pinPhase(0);
        Core core(cfg, 2);
        core.run(t, 40000);
        ipcSmall = core.run(t, 80000).ipc();
    }
    EXPECT_LE(ipcSmall, ipcFull * 1.02);
}

TEST(Core, ErrorInjectionCostsPerformance)
{
    const AppProfile &app = appByName("gzip");
    auto runWith = [&app](double errProb) {
        CoreConfig cfg;
        SyntheticTrace t(app, 9);
        t.pinPhase(0);
        Core core(cfg, 3);
        core.setErrorInjection(errProb, 14);
        core.run(t, 30000);
        return core.run(t, 60000);
    };
    const CoreStats clean = runWith(0.0);
    const CoreStats faulty = runWith(0.02);
    EXPECT_EQ(clean.errorRecoveries, 0u);
    EXPECT_GT(faulty.errorRecoveries, 500u);
    EXPECT_LT(faulty.ipc(), clean.ipc());
}

TEST(Core, ErrorRateMatchesInjection)
{
    const AppProfile &app = appByName("gzip");
    CoreConfig cfg;
    SyntheticTrace t(app, 9);
    t.pinPhase(0);
    Core core(cfg, 3);
    core.setErrorInjection(0.01, 14);
    const CoreStats s = core.run(t, 100000);
    const double measured = static_cast<double>(s.errorRecoveries) /
                            static_cast<double>(s.instructions);
    EXPECT_NEAR(measured, 0.01, 0.002);
}

TEST(Core, CpiDecompositionConsistent)
{
    const AppProfile &app = appByName("mcf");
    CoreConfig cfg;
    SyntheticTrace t(app, 11);
    t.pinPhase(0);
    Core core(cfg, 4);
    core.run(t, 60000);
    const CoreStats s = core.run(t, 120000);
    EXPECT_GT(s.cpiComp(), 0.3);
    EXPECT_LE(s.cpiComp(), s.cpi());
    EXPECT_NEAR(s.cpiComp() +
                    s.missesPerInstruction() * s.missPenaltyCycles(),
                s.cpi(), 0.02 * s.cpi());
}

TEST(Core, ActivityCountsPopulated)
{
    const AppProfile &app = appByName("swim");
    CoreConfig cfg;
    SyntheticTrace t(app, 13);
    t.pinPhase(0);
    Core core(cfg, 5);
    const CoreStats s = core.run(t, 60000);
    EXPECT_GT(s.alpha(SubsystemId::Icache), 0.0);
    EXPECT_GT(s.alpha(SubsystemId::IntALU), 0.0);
    EXPECT_GT(s.alpha(SubsystemId::FPUnit), 0.0);   // swim is FP
    EXPECT_GT(s.rho(SubsystemId::Dcache), 0.1);
    // An FP app exercises the FP queue; an int app must not.
    const AppProfile &intApp = appByName("gzip");
    SyntheticTrace ti(intApp, 13);
    ti.pinPhase(0);
    Core coreInt(cfg, 5);
    const CoreStats si = coreInt.run(ti, 60000);
    EXPECT_DOUBLE_EQ(si.alpha(SubsystemId::FPQ), 0.0);
}

TEST(Core, MemBoundAppsShowMemStalls)
{
    CoreConfig cfg;
    SyntheticTrace t(appByName("mcf"), 17);
    t.pinPhase(0);
    Core core(cfg, 6);
    core.run(t, 60000);
    const CoreStats s = core.run(t, 60000);
    EXPECT_GT(s.memStallCycles, 0u);
    EXPECT_GT(s.missPenaltyCycles(), 20.0);
    EXPECT_LT(s.missPenaltyCycles(),
              static_cast<double>(cfg.memLat.memory) + 2.0);
}

TEST(Core, FuReplicationAddsBranchLoopCycle)
{
    // With many mispredicted branches, the +1 redirect cycle of the
    // replicated-FU pipeline must cost measurable CPI.
    const AppProfile &app = appByName("gcc");
    auto cpiWith = [&app](bool repl) {
        CoreConfig cfg;
        cfg.fuReplicated = repl;
        SyntheticTrace t(app, 23);
        t.pinPhase(0);
        Core core(cfg, 7);
        core.run(t, 40000);
        return core.run(t, 80000).cpi();
    };
    const double plain = cpiWith(false);
    const double repl = cpiWith(true);
    EXPECT_GE(repl, plain);
    EXPECT_LT(repl, plain * 1.1);   // "modest impact" (Sec 5)
}

TEST(Core, DeterministicRuns)
{
    const AppProfile &app = appByName("vpr");
    auto run = [&app]() {
        CoreConfig cfg;
        SyntheticTrace t(app, 29);
        t.pinPhase(0);
        Core core(cfg, 8);
        return core.run(t, 50000);
    };
    const CoreStats a = run();
    const CoreStats b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(CoreDeath, GeometryOutsideTheRingIsRejected)
{
    // The ROB is a 128-slot ring and the issue scheduler keeps one
    // bit per slot; a larger ROB, a zero-width stage or no MSHRs (no
    // load could ever issue) is refused at construction.
    auto build = [](void (*tweak)(CoreConfig &)) {
        CoreConfig cfg;
        tweak(cfg);
        Core core(cfg, 1);
    };
    EXPECT_DEATH(build([](CoreConfig &c) { c.robSize = 129; }),
                 "robSize 129 outside");
    EXPECT_DEATH(build([](CoreConfig &c) { c.fetchWidth = 0; }),
                 "widths must be positive");
    EXPECT_DEATH(build([](CoreConfig &c) { c.issueWidth = 0; }),
                 "widths must be positive");
    EXPECT_DEATH(build([](CoreConfig &c) { c.retireWidth = 0; }),
                 "widths must be positive");
    EXPECT_DEATH(build([](CoreConfig &c) { c.mshrs = 0; }),
                 "mshrs must be positive");
}

/** Emits ops whose class is outside the OpClass range. */
class BadClassTrace : public TraceSource
{
  public:
    bool
    next(MicroOp &op) override
    {
        op = MicroOp{};
        op.cls = OpClass::NumClasses;
        return true;
    }
};

TEST(CoreDeath, OutOfRangeOpClassIsRejected)
{
    // Issue looks up the op's functional-unit pool by class, so a
    // trace op with a class past the table is refused at dispatch.
    auto runBad = [] {
        Core core(CoreConfig{}, 1);
        BadClassTrace trace;
        core.run(trace, 10);
    };
    EXPECT_DEATH(runBad(), "op class 8 out of range");
}

TEST(Core, FullRingRobIsAccepted)
{
    // With queues and LSQ as large as the ROB, a memory-bound app
    // fills all 128 slots, so every slot of the ring and the issue
    // masks is in use at once.
    CoreConfig cfg;
    cfg.robSize = 128;
    cfg.lsqSize = 128;
    cfg.intQueueFull = 128;
    SyntheticTrace t(appByName("mcf"), 19);
    Core core(cfg, 1);
    const CoreStats s = core.run(t, 20000);
    EXPECT_EQ(s.instructions, 20000u);
    EXPECT_GT(s.memStallCycles, 0u);
}

/** Every CoreStats field, in declaration order. */
std::vector<std::uint64_t>
allFields(const CoreStats &s)
{
    std::vector<std::uint64_t> v{
        s.cycles, s.instructions, s.branches, s.branchMispredicts,
        s.l2Misses, s.l2MissesIStream, s.l1dMisses, s.l1iMisses,
        s.memStallCycles, s.errorRecoveries, s.recoveryStallCycles};
    v.insert(v.end(), s.accesses.begin(), s.accesses.end());
    return v;
}

/**
 * One pinned configuration: an app, a tweak of the default core and
 * an error rate, with the exact counters of its measured run.  The
 * configurations are the ones the golden tier never reaches (small
 * queues, few MSHRs, prefetch, FU replication, checker recoveries, a
 * memory latency past 256 cycles), so a change to the core's internal
 * bookkeeping that alters any counter anywhere fails here.
 */
struct PinCase
{
    const char *name;
    const char *app;
    void (*tweak)(CoreConfig &);
    double errorProb;
    std::vector<std::uint64_t> expected;
};

void
PrintTo(const PinCase &pc, std::ostream *os)
{
    *os << pc.name;
}

class CoreStatsPin : public ::testing::TestWithParam<PinCase>
{
};

TEST_P(CoreStatsPin, EveryFieldMatchesRecordedValue)
{
    const PinCase &pc = GetParam();
    CoreConfig cfg;
    pc.tweak(cfg);
    SyntheticTrace t(appByName(pc.app), 41);
    t.pinPhase(0);
    Core core(cfg, 43);
    if (pc.errorProb > 0.0)
        core.setErrorInjection(pc.errorProb, 14);
    core.run(t, 20000);   // warm caches and predictors
    EXPECT_EQ(allFields(core.run(t, 40000)), pc.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CoreStatsPin,
    ::testing::Values(
        PinCase{"MemBound", "mcf", [](CoreConfig &) {}, 0.0,
                {224124, 40000, 5436, 898, 2261, 0, 7647, 0, 181529,
                 0, 0, 18316, 18316, 0, 0, 18327, 0, 0, 40028, 40028,
                 40046, 40046, 14925, 14925, 5436, 40046}},
        PinCase{"FpDivHeavy", "ammp", [](CoreConfig &) {}, 0.0,
                {105864, 40000, 5575, 712, 772, 0, 3663, 0, 68809, 0,
                 0, 12119, 12119, 15588, 15585, 12121, 15585, 15588,
                 24504, 24504, 24508, 24508, 14285, 14285, 5575,
                 40096}},
        PinCase{"SmallQueues", "ammp",
                [](CoreConfig &c) { c.queueCapacityFraction = 0.75; },
                0.0,
                {105965, 40000, 5576, 713, 772, 0, 3664, 0, 68834, 0,
                 0, 12120, 12120, 15587, 15585, 12121, 15585, 15587,
                 24505, 24505, 24509, 24509, 14630, 14630, 5576,
                 40096}},
        PinCase{"TwoMshrs", "mcf", [](CoreConfig &c) { c.mshrs = 2; },
                0.0,
                {271493, 40000, 5436, 898, 2259, 0, 7636, 0, 218296,
                 0, 0, 18311, 18311, 0, 0, 18327, 0, 0, 40019, 40019,
                 40046, 40046, 15191, 15191, 5436, 40046}},
        PinCase{"Prefetch", "swim",
                [](CoreConfig &c) { c.prefetchNextLine = true; }, 0.0,
                {76223, 40000, 5504, 589, 533, 0, 4517, 0, 45541, 0,
                 0, 12180, 12180, 17922, 17908, 12189, 17908, 17922,
                 22147, 22147, 22174, 22174, 14430, 14430, 5504,
                 40096}},
        PinCase{"FuReplicated", "gcc",
                [](CoreConfig &c) { c.fuReplicated = true; }, 0.0,
                {93777, 40000, 5903, 945, 654, 0, 4582, 0, 58969, 0,
                 0, 16937, 16937, 0, 0, 16949, 0, 0, 40008, 40008,
                 40031, 40031, 14408, 14408, 5903, 40031}},
        PinCase{"ErrorInjection", "mcf", [](CoreConfig &) {}, 1e-3,
                {224200, 40000, 5784, 967, 2262, 0, 7682, 0, 180150,
                 46, 644, 18906, 18906, 0, 0, 19521, 0, 0, 41186,
                 41186, 42611, 42611, 15774, 15774, 5784, 42611}},
        PinCase{"SlowMemory", "mcf",
                [](CoreConfig &c) { c.memLat.memory = 300; }, 0.0,
                {307844, 40000, 5436, 898, 2261, 0, 7647, 0, 265249,
                 0, 0, 18316, 18316, 0, 0, 18327, 0, 0, 40028, 40028,
                 40046, 40046, 14925, 14925, 5436, 40046}}),
    [](const ::testing::TestParamInfo<PinCase> &info) {
        return std::string(info.param.name);
    });

/** Property sweep: every suite app simulates cleanly with sane CPI. */
class SuiteSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteSweep, RunsWithPlausibleCpi)
{
    const AppProfile &app = appByName(GetParam());
    CoreConfig cfg;
    SyntheticTrace t(app, 31);
    Core core(cfg, 9);
    const CoreStats s = core.run(t, 40000);
    EXPECT_GT(s.cpi(), 0.34);
    EXPECT_LT(s.cpi(), 12.0);
    EXPECT_EQ(s.instructions, 40000u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, SuiteSweep,
    ::testing::Values("gzip", "mcf", "crafty", "eon", "bzip2", "swim",
                      "art", "lucas", "mesa", "sixtrack"));

} // namespace
} // namespace eval
