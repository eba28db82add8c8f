/**
 * @file
 * Cross-module integration tests: the full pipeline from kernel
 * generation through lowering, speed-of-data analysis, factory
 * sizing and microarchitecture simulation — driven through the
 * qc::Experiment facade on reduced problem sizes, plus the
 * layout-calibrated Monte Carlo path.
 */

#include <gtest/gtest.h>

#include "api/Qc.hh"
#include "circuit/Dataflow.hh"
#include "error/BatchAncillaSim.hh"
#include "layout/Builders.hh"

namespace qc {
namespace {

class IntegrationTest : public ::testing::Test
{
  protected:
    static ExperimentConfig
    config(const std::string &workload, int bits)
    {
        ExperimentConfig c;
        c.workload = workload;
        c.params.bits = bits;
        return c;
    }

    static Result
    speedOfData(const std::string &workload, int bits)
    {
        return runExperiment(config(workload, bits));
    }
};

TEST_F(IntegrationTest, QclaNeedsHigherBandwidthThanQrca)
{
    // Table 3's central contrast: the parallel adder demands several
    // times the ancilla bandwidth of the serial adder (306 vs 35 in
    // the paper at 32 bits).
    const Result qrca = speedOfData("qrca", 16);
    const Result qcla = speedOfData("qcla", 16);
    EXPECT_GT(qcla.bandwidth.zeroPerMs(),
              3.0 * qrca.bandwidth.zeroPerMs());
    EXPECT_LT(qcla.bandwidth.runtime, qrca.bandwidth.runtime);
}

TEST_F(IntegrationTest, Pi8BandwidthTracksNonTransversalFraction)
{
    const Result qrca = speedOfData("qrca", 16);
    const double ratio =
        qrca.bandwidth.pi8PerMs() / qrca.bandwidth.zeroPerMs();
    // Paper Table 3: 7.0/34.8 = 0.20 for QRCA. Expect ~1/5.
    EXPECT_GT(ratio, 0.1);
    EXPECT_LT(ratio, 0.35);
}

TEST_F(IntegrationTest, FactoryAllocationCoversBandwidth)
{
    // Running throttled at the allocated production rate must come
    // within a small factor of the speed-of-data runtime. The
    // throttled experiment derives its default supply rate from the
    // integrally provisioned allocation.
    ExperimentConfig c = config("qrca", 16);
    const Result ideal = runExperiment(c);
    c.schedule = ScheduleMode::Throttled;
    const Result throttled = runExperiment(c);
    EXPECT_TRUE(throttled.completed);
    EXPECT_LT(toMs(throttled.makespan),
              2.2 * toMs(ideal.bandwidth.runtime));
}

TEST_F(IntegrationTest, AncillaGenerationDominatesChipArea)
{
    // Section 5.1: even the serial QRCA needs about two thirds of
    // the chip for ancilla generation; data area is the small part.
    const Result qrca = speedOfData("qrca", 32);
    const Area data_area = dataQubitArea() * qrca.qubits;
    EXPECT_GT(qrca.allocation.totalArea(), data_area);
}

TEST_F(IntegrationTest, LayoutCalibratedMonteCarloStaysInBand)
{
    // Calibrate movement from the routed Fig 11 factory layout and
    // re-run the basic-prep Monte Carlo: with pMove = 1e-6 the rate
    // must remain within the Figure 4 band.
    const MovementModel moves = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    BatchAncillaSim sim(ErrorParams::paper(), moves, 4242);
    const PrepEstimate est =
        sim.estimate(ZeroPrepStrategy::Basic, 200000);
    EXPECT_GT(est.errorRate(), 1e-4);
    EXPECT_LT(est.errorRate(), 3e-3);
}

TEST_F(IntegrationTest, ThrottledKneeNearAverageBandwidth)
{
    // Figure 8's shape: at the average bandwidth the run is within
    // a modest factor of optimal; at a tenth it is several times
    // slower.
    ExperimentConfig c = config("qrca", 8);
    Experiment experiment(c);
    const Result ideal = experiment.run();

    c.schedule = ScheduleMode::Throttled;
    c.zeroPerMs = ideal.bandwidth.zeroPerMs();
    const Result at_avg = experiment.run(c);
    c.zeroPerMs = ideal.bandwidth.zeroPerMs() / 10.0;
    const Result starved = experiment.run(c);

    EXPECT_LT(toMs(at_avg.makespan), 3.0 * toMs(ideal.makespan));
    EXPECT_GT(toMs(starved.makespan), 3.0 * toMs(at_avg.makespan));
}

TEST_F(IntegrationTest, QalypsoHeadlineSpeedup)
{
    // "more than five times speedup over previous proposals" at
    // matched area: compare FMA against CQLA at the CQLA area.
    ExperimentConfig c = config("qrca", 8);
    c.schedule = ScheduleMode::Arch;
    c.arch = "cqla";
    c.cacheSlots = 8;
    c.generatorsPerSite = 1;
    Experiment experiment(c);
    const Result cqla = experiment.run();

    ExperimentConfig fma = c;
    fma.arch = "fma";
    fma.areaBudget = cqla.archRun.ancillaArea;
    const Result fma_run = experiment.run(fma);

    EXPECT_GT(static_cast<double>(cqla.makespan),
              2.0 * static_cast<double>(fma_run.makespan));
}

TEST_F(IntegrationTest, BenchmarksScaleWithWidth)
{
    for (const char *workload : {"qrca", "qcla"}) {
        const Result small = speedOfData(workload, 8);
        const Result big = speedOfData(workload, 16);
        EXPECT_GT(big.gates, 1.5 * small.gates);
    }
}

TEST_F(IntegrationTest, QftLoweringProducesPi8Demand)
{
    const Result qft = speedOfData("qft", 8);
    EXPECT_GT(qft.pi8Gates, 0u);
    EXPECT_GT(qft.bandwidth.pi8PerMs(), 0.0);
}

TEST_F(IntegrationTest, KlopsConsistentAcrossSchedules)
{
    // Throughput in logical ops: the throttled run retires the same
    // gates over a longer makespan, so KLOPS must drop by exactly
    // the slowdown factor.
    ExperimentConfig c = config("qcla", 8);
    Experiment experiment(c);
    const Result ideal = experiment.run();

    ExperimentConfig throttled = c;
    throttled.schedule = ScheduleMode::Throttled;
    throttled.zeroPerMs = ideal.bandwidth.zeroPerMs() / 4.0;
    const Result slow = experiment.run(throttled);

    ASSERT_TRUE(slow.completed);
    EXPECT_GT(slow.makespan, ideal.makespan);
    EXPECT_NEAR(ideal.klops() / slow.klops(),
                static_cast<double>(slow.makespan)
                    / static_cast<double>(ideal.makespan),
                1e-9);
}

} // namespace
} // namespace qc
