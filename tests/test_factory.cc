/**
 * @file
 * Tests for the ancilla factory designs: exact reproduction of the
 * paper's Tables 5-8 under the ion-trap parameters, the simple
 * factory of Section 4.3, bandwidth-matching invariants under
 * parameter sweeps, and the Table 9 allocation math.
 */

#include <gtest/gtest.h>

#include "factory/Allocation.hh"
#include "factory/Cascade.hh"
#include "factory/ConcatenatedFactory.hh"
#include "factory/FunctionalUnit.hh"
#include "factory/Pi8Factory.hh"
#include "factory/ZeroFactory.hh"

namespace qc {
namespace {

// ---------------------------------------------------------------
// Table 5: zero-factory functional units.
// ---------------------------------------------------------------

class Table5Test : public ::testing::Test
{
  protected:
    ZeroFactoryUnits units_{IonTrapParams::paper(), 0.998};
};

TEST_F(Table5Test, ZeroPrepRow)
{
    EXPECT_EQ(units_.zeroPrep.latency, usec(73));
    EXPECT_NEAR(units_.zeroPrep.inBandwidth(), 13.7, 0.05);
    EXPECT_NEAR(units_.zeroPrep.outBandwidth(), 13.7, 0.05);
    EXPECT_DOUBLE_EQ(units_.zeroPrep.area, 1.0);
}

TEST_F(Table5Test, CxStageRow)
{
    EXPECT_EQ(units_.cxStage.latency, usec(95));
    EXPECT_EQ(units_.cxStage.stages, 3);
    EXPECT_NEAR(units_.cxStage.inBandwidth(), 221.1, 0.1);
    EXPECT_NEAR(units_.cxStage.outBandwidth(), 221.1, 0.1);
    EXPECT_DOUBLE_EQ(units_.cxStage.area, 28.0);
}

TEST_F(Table5Test, CatPrepRow)
{
    EXPECT_EQ(units_.catPrep.latency, usec(62));
    EXPECT_NEAR(units_.catPrep.outBandwidth(), 96.8, 0.1);
    EXPECT_DOUBLE_EQ(units_.catPrep.area, 6.0);
}

TEST_F(Table5Test, VerificationRow)
{
    EXPECT_EQ(units_.verify.latency, usec(82));
    EXPECT_NEAR(units_.verify.inBandwidth(), 122.0, 0.1);
    EXPECT_NEAR(units_.verify.outBandwidth(), 85.2, 0.1);
    EXPECT_DOUBLE_EQ(units_.verify.area, 10.0);
}

TEST_F(Table5Test, CorrectionRow)
{
    EXPECT_EQ(units_.bpCorrect.latency, usec(138));
    EXPECT_NEAR(units_.bpCorrect.inBandwidth(), 152.2, 0.1);
    EXPECT_NEAR(units_.bpCorrect.outBandwidth(), 50.7, 0.1);
    EXPECT_DOUBLE_EQ(units_.bpCorrect.area, 21.0);
}

// ---------------------------------------------------------------
// Table 6: zero-factory unit counts and totals.
// ---------------------------------------------------------------

class Table6Test : public ::testing::Test
{
  protected:
    ZeroFactory factory_{IonTrapParams::paper(), 0.998};
};

TEST_F(Table6Test, UnitCountsMatchPaper)
{
    const auto &stages = factory_.stages();
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].count, 24); // Zero Prepare
    EXPECT_EQ(stages[1].count, 1);  // CX Stage
    EXPECT_EQ(stages[2].count, 1);  // Cat State Prepare
    EXPECT_EQ(stages[3].count, 3);  // Verification
    EXPECT_EQ(stages[4].count, 2);  // B/P Correction
}

TEST_F(Table6Test, StageHeightsMatchPaper)
{
    const auto &stages = factory_.stages();
    EXPECT_EQ(stages[0].totalHeight(), 24);
    EXPECT_EQ(stages[1].totalHeight(), 4);
    EXPECT_EQ(stages[2].totalHeight(), 2);
    EXPECT_EQ(stages[3].totalHeight(), 30);
    EXPECT_EQ(stages[4].totalHeight(), 42);
}

TEST_F(Table6Test, AreasMatchPaper)
{
    EXPECT_DOUBLE_EQ(factory_.functionalUnitArea(), 130.0);
    EXPECT_DOUBLE_EQ(factory_.crossbarArea(), 168.0);
    EXPECT_DOUBLE_EQ(factory_.totalArea(), 298.0);
}

TEST_F(Table6Test, ThroughputIs10Point5PerMs)
{
    EXPECT_NEAR(factory_.throughput(), 10.5, 0.05);
}

TEST_F(Table6Test, EveryStageKeepsUpWithUpstream)
{
    // Downstream aggregate input bandwidth must cover the flow that
    // actually arrives (the bandwidth-matching invariant).
    const auto &s = factory_.stages();
    const double encoded = s[1].aggregateOut();
    const double cat = encoded * 3.0 / 7.0;
    EXPECT_GE(s[0].aggregateOut(), encoded + cat - 1e-9);
    EXPECT_GE(s[2].aggregateOut(), cat - 1e-9);
    EXPECT_GE(s[3].aggregateIn(), encoded + cat - 1e-9);
    EXPECT_GE(s[4].aggregateIn(),
              encoded * factory_.acceptRate() - 1e-9);
}

TEST_F(Table6Test, LatencyLongerThanUnpipelinedCriticalPath)
{
    // The pipeline adds crossbar transits, so end-to-end latency
    // must exceed the raw sum of the four traversed unit latencies.
    const auto &s = factory_.stages();
    const Time raw = s[0].unit.latency + s[1].unit.latency
        + s[3].unit.latency + s[4].unit.latency;
    EXPECT_GT(factory_.latency(), raw);
    EXPECT_LT(factory_.latency(), raw + usec(100));
}

TEST(SimpleFactory, MatchesSection43)
{
    const SimpleZeroFactory f;
    EXPECT_EQ(f.latency(), usec(323));
    EXPECT_NEAR(f.throughput(), 3.1, 0.01);
    EXPECT_DOUBLE_EQ(f.area(), 90.0);
}

TEST(SimpleFactory, PipelinedFactoryHasSimilarBandwidthPerArea)
{
    // Section 5.3's observation: ~3.44 vs ~3.52 ancillae per ms per
    // 100 macroblocks — virtually the same bandwidth density.
    const SimpleZeroFactory simple;
    const ZeroFactory pipelined;
    const double simple_density = simple.throughput() / simple.area();
    const double pipe_density =
        pipelined.throughput() / pipelined.totalArea();
    EXPECT_NEAR(pipe_density / simple_density, 1.0, 0.15);
}

// ---------------------------------------------------------------
// Tables 7-8: pi/8 factory.
// ---------------------------------------------------------------

class Table7Test : public ::testing::Test
{
  protected:
    Pi8FactoryUnits units_{IonTrapParams::paper()};
};

TEST_F(Table7Test, CatPrepRow)
{
    EXPECT_EQ(units_.catPrep7.latency, usec(218));
    EXPECT_NEAR(units_.catPrep7.inBandwidth(), 32.1, 0.05);
    EXPECT_DOUBLE_EQ(units_.catPrep7.area, 12.0);
}

TEST_F(Table7Test, TransversalRow)
{
    EXPECT_EQ(units_.transversal.latency, usec(53));
    EXPECT_NEAR(units_.transversal.inBandwidth(), 264.2, 0.1);
    EXPECT_DOUBLE_EQ(units_.transversal.area, 7.0);
}

TEST_F(Table7Test, DecodeRow)
{
    EXPECT_EQ(units_.decode.latency, usec(218));
    EXPECT_NEAR(units_.decode.inBandwidth(), 64.2, 0.05);
    EXPECT_NEAR(units_.decode.outBandwidth(), 36.7, 0.05);
    EXPECT_DOUBLE_EQ(units_.decode.area, 19.0);
}

TEST_F(Table7Test, FixupRow)
{
    EXPECT_EQ(units_.fixup.latency, usec(74));
    EXPECT_NEAR(units_.fixup.inBandwidth(), 108.1, 0.1);
    EXPECT_NEAR(units_.fixup.outBandwidth(), 94.6, 0.1);
    EXPECT_DOUBLE_EQ(units_.fixup.area, 8.0);
}

class Table8Test : public ::testing::Test
{
  protected:
    Pi8Factory factory_{IonTrapParams::paper()};
};

TEST_F(Table8Test, UnitCountsMatchPaper)
{
    const auto &stages = factory_.stages();
    ASSERT_EQ(stages.size(), 4u);
    EXPECT_EQ(stages[0].count, 4); // Cat State Prepare
    EXPECT_EQ(stages[1].count, 1); // Transversal
    EXPECT_EQ(stages[2].count, 4); // Decode
    EXPECT_EQ(stages[3].count, 2); // H/M/Z
}

TEST_F(Table8Test, HeightsMatchPaper)
{
    const auto &stages = factory_.stages();
    EXPECT_EQ(stages[0].totalHeight(), 24);
    EXPECT_EQ(stages[1].totalHeight(), 7);
    EXPECT_EQ(stages[2].totalHeight(), 52);
    EXPECT_EQ(stages[3].totalHeight(), 16);
}

TEST_F(Table8Test, AreasMatchPaper)
{
    EXPECT_DOUBLE_EQ(factory_.functionalUnitArea(), 147.0);
    EXPECT_DOUBLE_EQ(factory_.crossbarArea(), 256.0);
    EXPECT_DOUBLE_EQ(factory_.totalArea(), 403.0);
}

TEST_F(Table8Test, ThroughputIs18Point3PerMs)
{
    EXPECT_NEAR(factory_.throughput(), 18.3, 0.05);
}

TEST_F(Table8Test, ZeroInputMatchesThroughput)
{
    EXPECT_DOUBLE_EQ(factory_.zeroInputBandwidth(),
                     factory_.throughput());
}

// ---------------------------------------------------------------
// Parameter-sweep properties of the designs.
// ---------------------------------------------------------------

struct TechScale
{
    double factor;
};

class FactoryScalingTest : public ::testing::TestWithParam<TechScale>
{
  protected:
    static IonTrapParams
    scaled(double f)
    {
        IonTrapParams p = IonTrapParams::paper();
        p.t1q = static_cast<Time>(p.t1q * f);
        p.t2q = static_cast<Time>(p.t2q * f);
        p.tmeas = static_cast<Time>(p.tmeas * f);
        p.tprep = static_cast<Time>(p.tprep * f);
        p.tmove = static_cast<Time>(p.tmove * f);
        p.tturn = static_cast<Time>(p.tturn * f);
        return p;
    }
};

TEST_P(FactoryScalingTest, ThroughputScalesInverselyWithLatency)
{
    const double f = GetParam().factor;
    const ZeroFactory base;
    const ZeroFactory scaled_f(scaled(f));
    EXPECT_NEAR(scaled_f.throughput() * f, base.throughput(),
                base.throughput() * 0.01);
    // Unit counts are latency-ratio driven and must not change
    // under uniform scaling.
    for (std::size_t i = 0; i < base.stages().size(); ++i) {
        EXPECT_EQ(scaled_f.stages()[i].count,
                  base.stages()[i].count);
    }
}

TEST_P(FactoryScalingTest, Pi8DesignStableUnderUniformScaling)
{
    const double f = GetParam().factor;
    const Pi8Factory base;
    const Pi8Factory scaled_f(scaled(f));
    EXPECT_DOUBLE_EQ(scaled_f.totalArea(), base.totalArea());
    EXPECT_NEAR(scaled_f.throughput() * f, base.throughput(),
                base.throughput() * 0.01);
}

INSTANTIATE_TEST_SUITE_P(UniformScales, FactoryScalingTest,
                         ::testing::Values(TechScale{2.0},
                                           TechScale{4.0},
                                           TechScale{10.0}),
                         [](const auto &info) {
                             std::string name(1, 'x');
                             name += std::to_string(
                                 static_cast<int>(info.param.factor));
                             return name;
                         });

TEST(FactoryDesign, LowerAcceptanceNeedsMoreCorrectionHeadroom)
{
    // Dropping the verification acceptance rate reduces throughput
    // proportionally.
    const ZeroFactory good(IonTrapParams::paper(), 0.998);
    const ZeroFactory bad(IonTrapParams::paper(), 0.5);
    EXPECT_NEAR(bad.throughput() / good.throughput(), 0.5 / 0.998,
                0.01);
}

TEST(FactoryDesignDeath, RejectsBadAcceptRate)
{
    EXPECT_DEATH(ZeroFactory(IonTrapParams::paper(), 0.0),
                 "acceptance");
}

// ---------------------------------------------------------------
// Allocation (Table 9 machinery).
// ---------------------------------------------------------------

TEST(Allocation, QrcaRowOfTable9)
{
    // Paper: QEC bandwidth 34.8/ms -> 986.9 macroblocks of QEC
    // factories; pi/8 bandwidth 7.0/ms -> 354.7 macroblocks
    // including feeder zero factories.
    const ZeroFactory zero;
    const Pi8Factory pi8;
    const FactoryAllocation alloc =
        allocateForBandwidth(zero, pi8, 34.8, 7.0);
    EXPECT_NEAR(alloc.qecArea(), 986.9, 15.0);
    EXPECT_NEAR(alloc.pi8Area(), 354.7, 15.0);
}

TEST(Allocation, ScalesLinearlyWithBandwidth)
{
    const ZeroFactory zero;
    const Pi8Factory pi8;
    const auto one = allocateForBandwidth(zero, pi8, 10, 2);
    const auto ten = allocateForBandwidth(zero, pi8, 100, 20);
    EXPECT_NEAR(ten.totalArea(), 10.0 * one.totalArea(), 1e-6);
}

TEST(Allocation, ZeroBandwidthNeedsNoArea)
{
    const ZeroFactory zero;
    const Pi8Factory pi8;
    const auto none = allocateForBandwidth(zero, pi8, 0, 0);
    EXPECT_DOUBLE_EQ(none.totalArea(), 0.0);
}

// ---------------------------------------------------------------
// Figure 6 cascade model.
// ---------------------------------------------------------------

TEST(Cascade, ExpectedCxCountConvergesToTwo)
{
    EXPECT_DOUBLE_EQ(CascadeModel::expectedCxCount(3), 1.0);
    EXPECT_DOUBLE_EQ(CascadeModel::expectedCxCount(4), 1.5);
    EXPECT_NEAR(CascadeModel::expectedCxCount(20), 2.0, 1e-4);
}

TEST(Cascade, ExpectedLatencyBelowWorstCase)
{
    const IonTrapParams tech;
    for (int k = 3; k <= 10; ++k) {
        EXPECT_LE(CascadeModel::expectedDataLatency(k, tech),
                  CascadeModel::worstCaseDataLatency(k, tech))
            << "k=" << k;
    }
}

TEST(Cascade, WorstCaseGrowsLinearly)
{
    const IonTrapParams tech;
    EXPECT_EQ(CascadeModel::worstCaseDataLatency(5, tech),
              3 * usec(61));
    EXPECT_EQ(CascadeModel::worstCaseDataLatency(10, tech),
              8 * usec(61));
}

// ---------------------------------------------------------------
// FactoryCascade sizing and the level-2 concatenated factories.
// ---------------------------------------------------------------

TEST(FactoryCascade, SizesStagesByInputsPerOutput)
{
    // A toy two-stage chain: bottom units deliver 10/ms, the top
    // stage consumes 5 bottom items per output and delivers 2/ms
    // per unit.
    CascadeStage bottom{"bottom", 10.0, 0.0, 100.0, usec(10)};
    CascadeStage top{"top", 2.0, 5.0, 40.0, usec(30)};
    const FactoryCascade cascade({bottom, top});

    EXPECT_DOUBLE_EQ(cascade.boundaryBandwidth(1, 4.0), 4.0);
    EXPECT_DOUBLE_EQ(cascade.boundaryBandwidth(0, 4.0), 20.0);
    const std::vector<double> units = cascade.unitsFor(4.0);
    ASSERT_EQ(units.size(), 2u);
    EXPECT_DOUBLE_EQ(units[0], 2.0); // 20/ms over 10/ms units
    EXPECT_DOUBLE_EQ(units[1], 2.0); // 4/ms over 2/ms units
    EXPECT_DOUBLE_EQ(cascade.areaFor(4.0), 2.0 * 100 + 2.0 * 40);
    EXPECT_EQ(cascade.fillLatency(), usec(40));
}

class Level2FactoryTest : public ::testing::Test
{
  protected:
    Level2ZeroFactory zero_{IonTrapParams::paper()};
    Level2Pi8Factory pi8_{IonTrapParams::paper()};
    ZeroFactory l1_{IonTrapParams::paper()};
};

TEST_F(Level2FactoryTest, ThroughputBelowLevelOne)
{
    // A delivered level-2 zero embeds three verified raw blocks of
    // ten level-1 zeros each: the cascade is necessarily slower per
    // line and hungrier per output than the level-1 design.
    EXPECT_GT(zero_.throughput(), 0);
    EXPECT_LT(zero_.throughput(), l1_.throughput());
    EXPECT_NEAR(zero_.level1ZerosPerOutput(),
                30.0 / zero_.acceptRate(), 1e-9);
}

TEST_F(Level2FactoryTest, InterLevelBandwidthIsConsistent)
{
    EXPECT_NEAR(zero_.level1InputBandwidth(),
                zero_.throughput() * zero_.level1ZerosPerOutput(),
                1e-9);
    EXPECT_NEAR(zero_.level1FeederFactories(),
                zero_.level1InputBandwidth() / l1_.throughput(),
                1e-9);
}

TEST_F(Level2FactoryTest, AreaDominatedByFeeders)
{
    // Keeping one assembly line saturated takes several pipelined
    // level-1 factories; their area dwarfs the assembly line's.
    EXPECT_GT(zero_.level1FeederFactories(), 1.0);
    EXPECT_GT(zero_.feederArea(), zero_.assemblyArea());
    EXPECT_NEAR(zero_.totalArea(),
                zero_.feederArea() + zero_.assemblyArea(), 1e-9);
    // Area per delivered bandwidth grows steeply with the level.
    const double costL1 = l1_.totalArea() / l1_.throughput();
    const double costL2 = zero_.totalArea() / zero_.throughput();
    EXPECT_GT(costL2, 5.0 * costL1);
    EXPECT_LT(costL2, 500.0 * costL1);
}

TEST_F(Level2FactoryTest, LatencyExceedsLevelOneFill)
{
    EXPECT_GT(zero_.latency(), l1_.latency());
    EXPECT_GT(pi8_.latency(), 0);
}

TEST_F(Level2FactoryTest, Pi8ConsumesSevenCatBlocksPerOutput)
{
    EXPECT_NEAR(pi8_.level1InputBandwidth(),
                7.0 * pi8_.throughput(), 1e-9);
    EXPECT_DOUBLE_EQ(pi8_.level2ZeroInputBandwidth(),
                     pi8_.throughput());
    EXPECT_GT(pi8_.feederArea(), 0);
}

TEST(Level2Allocation, TracksInterLevelTraffic)
{
    const Level2ZeroFactory zero;
    const Level2Pi8Factory pi8;
    const FactoryAllocation alloc =
        allocateForBandwidthLevel2(zero, pi8, 10.0, 2.0);
    EXPECT_EQ(alloc.codeLevel, 2);
    EXPECT_NEAR(alloc.zeroFactoriesForQec,
                10.0 / zero.throughput(), 1e-9);
    EXPECT_NEAR(alloc.pi8Factories, 2.0 / pi8.throughput(), 1e-9);
    EXPECT_NEAR(alloc.zeroFactoriesForPi8,
                2.0 / zero.throughput(), 1e-9);
    // Inter-level traffic: both level-2 zero chains plus the cats.
    EXPECT_NEAR(alloc.interLevelZeroPerMs,
                12.0 * zero.level1ZerosPerOutput() + 2.0 * 7.0,
                1e-9);
    EXPECT_GT(alloc.level1FeederFactories, 0);
    EXPECT_GT(alloc.totalArea(), 0);
}

TEST(Level2Allocation, LevelOneAllocationUnchanged)
{
    // The level-1 path must not pick up level-2 fields.
    const FactoryAllocation alloc = allocateForBandwidth(
        ZeroFactory(), Pi8Factory(), 45.0, 10.0);
    EXPECT_EQ(alloc.codeLevel, 1);
    EXPECT_DOUBLE_EQ(alloc.interLevelZeroPerMs, 0.0);
    EXPECT_DOUBLE_EQ(alloc.level1FeederFactories, 0.0);
}

} // namespace
} // namespace qc
