/** Tests for the synthetic SPEC-like workload suite and generator. */

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "workload/generator.hh"
#include "workload/profile.hh"

namespace eval {
namespace {

TEST(Suite, TwentyFourApps)
{
    EXPECT_EQ(specSuite().size(), 24u);
    const auto fp = std::count_if(
        specSuite().begin(), specSuite().end(),
        [](const AppProfile &app) { return app.isFp; });
    EXPECT_EQ(fp, 12);   // 12 SPECfp + 12 SPECint
}

TEST(Suite, LookupByName)
{
    EXPECT_EQ(appByName("swim").name, "swim");
    EXPECT_TRUE(appByName("swim").isFp);
    EXPECT_FALSE(appByName("gcc").isFp);
}

TEST(Suite, MixesArePositive)
{
    for (const auto &app : specSuite()) {
        double sum = 0.0;
        for (double m : app.mix)
            sum += m;
        EXPECT_NEAR(sum, 1.0, 0.05) << app.name;
        EXPECT_GT(app.depDistanceMean, 1.0) << app.name;
    }
}

TEST(Generator, Deterministic)
{
    const AppProfile &app = appByName("gzip");
    SyntheticTrace a(app, 42), b(app, 42);
    for (int i = 0; i < 5000; ++i) {
        MicroOp oa, ob;
        a.next(oa);
        b.next(ob);
        ASSERT_EQ(oa.pc, ob.pc);
        ASSERT_EQ(oa.cls, ob.cls);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.taken, ob.taken);
    }
}

TEST(Generator, MixApproximatesProfile)
{
    const AppProfile &app = appByName("swim");
    SyntheticTrace t(app, 7);
    t.pinPhase(0);
    std::map<OpClass, int> counts;
    const int n = 100000;
    MicroOp op;
    for (int i = 0; i < n; ++i) {
        t.next(op);
        ++counts[op.cls];
    }
    const double fpShare =
        static_cast<double>(counts[OpClass::FpAdd] +
                            counts[OpClass::FpMul] +
                            counts[OpClass::FpDiv]) / n;
    EXPECT_GT(fpShare, 0.30);   // swim is FP heavy
    const double memShare = static_cast<double>(counts[OpClass::Load] +
                                                counts[OpClass::Store]) /
                            n;
    EXPECT_GT(memShare, 0.20);
    EXPECT_LT(memShare, 0.50);
}

TEST(Generator, IntAppHasNoFpOps)
{
    SyntheticTrace t(appByName("gzip"), 7);
    MicroOp op;
    for (int i = 0; i < 50000; ++i) {
        t.next(op);
        EXPECT_FALSE(isFpOp(op.cls));
    }
}

TEST(Generator, PhaseScriptCycles)
{
    const AppProfile &app = appByName("gcc");   // three phases
    SyntheticTrace t(app, 9);
    EXPECT_EQ(t.numPhases(), 3u);
    std::map<std::size_t, int> seen;
    MicroOp op;
    for (int i = 0; i < 900000; ++i) {
        t.next(op);
        ++seen[t.currentPhase()];
    }
    EXPECT_EQ(seen.size(), 3u);
    for (const auto &[phase, count] : seen)
        EXPECT_GT(count, 50000) << "phase " << phase;
}

TEST(Generator, PinPhaseHolds)
{
    SyntheticTrace t(appByName("gcc"), 9);
    t.pinPhase(2);
    MicroOp op;
    for (int i = 0; i < 500000; ++i) {
        t.next(op);
        ASSERT_EQ(t.currentPhase(), 2u);
    }
}

TEST(Generator, PhasesUseDistinctCodeRegions)
{
    SyntheticTrace t(appByName("gcc"), 9);
    MicroOp op;
    t.pinPhase(0);
    t.next(op);
    const std::uint64_t pc0 = op.pc;
    t.pinPhase(1);
    t.next(op);
    EXPECT_NE(pc0 >> 20, op.pc >> 20);
}

TEST(Generator, MemOpsHaveAddresses)
{
    SyntheticTrace t(appByName("mcf"), 11);
    MicroOp op;
    int memOps = 0;
    for (int i = 0; i < 20000; ++i) {
        t.next(op);
        if (isMemOp(op.cls)) {
            ++memOps;
            EXPECT_GE(op.addr, 0x10000000ULL);
        }
    }
    EXPECT_GT(memOps, 4000);
}

TEST(Generator, DependencyDistancesScaleWithIlp)
{
    auto meanDist = [](const std::string &name) {
        SyntheticTrace t(appByName(name), 13);
        t.pinPhase(0);
        MicroOp op;
        double sum = 0.0;
        int n = 0;
        for (int i = 0; i < 50000; ++i) {
            t.next(op);
            if (op.src1Dist > 0) {
                sum += op.src1Dist;
                ++n;
            }
        }
        return sum / n;
    };
    // lucas (ILP 8.8) must show larger distances than mcf (ILP 3.0).
    EXPECT_GT(meanDist("lucas"), meanDist("mcf") * 1.5);
}

} // namespace
} // namespace eval
