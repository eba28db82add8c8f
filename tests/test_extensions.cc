/**
 * @file
 * Tests for the extension components: the event-level factory farm
 * simulation (cross-validating the analytic Table 6 design), the
 * tiled Qalypso model (Fig 16), and the on-demand token pools that
 * underpin the microarchitecture comparisons.
 */

#include <gtest/gtest.h>

#include <utility>

#include "FarmSim.hh"
#include "arch/Microarch.hh"
#include "arch/SpeedOfData.hh"
#include "circuit/Dataflow.hh"
#include "kernels/Workloads.hh"
#include "sim/TokenPool.hh"

namespace qc {
namespace {

// ---------------------------------------------------------------
// OnDemandBankPool.
// ---------------------------------------------------------------

TEST(OnDemandBankPool, IdleProducerHasOneBufferedToken)
{
    OnDemandBankPool bank(1, usec(323));
    // At t = 1 ms the single producer has been idle long enough to
    // have one ancilla buffered: the first claim is immediate.
    EXPECT_EQ(bank.claim(1, msec(1)), msec(1));
    // The second must be produced from scratch.
    EXPECT_EQ(bank.claim(1, msec(1)), msec(1) + usec(323));
}

TEST(OnDemandBankPool, BurstSerializesOnOneProducer)
{
    OnDemandBankPool bank(1, usec(100));
    const Time t0 = usec(1000);
    EXPECT_EQ(bank.claim(1, t0), t0);            // buffered
    EXPECT_EQ(bank.claim(1, t0), t0 + usec(100));
    EXPECT_EQ(bank.claim(1, t0), t0 + usec(200));
    EXPECT_EQ(bank.claim(2, t0), t0 + usec(400));
    EXPECT_EQ(bank.issued(), 5u);
}

TEST(OnDemandBankPool, ParallelProducersShareBurst)
{
    OnDemandBankPool bank(4, usec(100));
    const Time t0 = usec(1000);
    // Four buffered tokens immediately, then one period for more.
    EXPECT_EQ(bank.claim(4, t0), t0);
    EXPECT_EQ(bank.claim(4, t0), t0 + usec(100));
}

TEST(OnDemandBankPool, CannotStockpileBeyondBuffer)
{
    // The dedicated-generator pathology the paper targets: a long
    // idle stretch yields only `producers` buffered ancillae, not
    // idle_time / period of them.
    OnDemandBankPool bank(2, usec(100));
    const Time t0 = msec(100); // 100 ms of idleness
    EXPECT_EQ(bank.claim(2, t0), t0);
    EXPECT_GT(bank.claim(1, t0), t0);
}

TEST(OnDemandBankPoolDeath, RejectsBadParameters)
{
    EXPECT_DEATH(OnDemandBankPool(0, usec(1)), "bad parameters");
}

// ---------------------------------------------------------------
// Factory farm simulation vs the analytic design.
// ---------------------------------------------------------------

class FarmSimTest : public ::testing::Test
{
  protected:
    ZeroFactory factory_{IonTrapParams::paper(), 0.998};
};

TEST_F(FarmSimTest, SteadyThroughputMatchesAnalyticDesign)
{
    const FarmSimResult r =
        simulateZeroFactory(factory_, 20000, 42);
    // The event-level pipeline must reproduce the closed-form
    // 10.5 ancillae/ms within a few percent.
    EXPECT_NEAR(r.throughput, factory_.throughput(),
                0.06 * factory_.throughput());
}

TEST_F(FarmSimTest, FirstOutputAfterPipelineFill)
{
    const FarmSimResult r = simulateZeroFactory(factory_, 100, 42);
    // Three candidates must traverse prep+cx+verify before the
    // first correction completes.
    EXPECT_GT(r.firstOutput, factory_.latency() / 2);
    EXPECT_LT(r.firstOutput, 4 * factory_.latency());
}

TEST_F(FarmSimTest, DiscardRateTracksAcceptance)
{
    const FarmSimResult r =
        simulateZeroFactory(factory_, 50000, 7);
    const double discard_rate = static_cast<double>(r.discarded)
        / 50000.0;
    EXPECT_NEAR(discard_rate, 1.0 - factory_.acceptRate(), 0.002);
}

TEST_F(FarmSimTest, OutputCountsAccountForGrouping)
{
    const FarmSimResult r =
        simulateZeroFactory(factory_, 9000, 3);
    // Every output consumes three verified candidates.
    EXPECT_NEAR(static_cast<double>(r.produced),
                (9000.0 - static_cast<double>(r.discarded)) / 3.0,
                1.5);
}

TEST_F(FarmSimTest, LowerAcceptanceLowersThroughput)
{
    const ZeroFactory leaky(IonTrapParams::paper(), 0.5);
    const FarmSimResult good =
        simulateZeroFactory(factory_, 12000, 5);
    const FarmSimResult bad = simulateZeroFactory(leaky, 12000, 5);
    EXPECT_LT(bad.throughput, 0.7 * good.throughput);
}

// ---------------------------------------------------------------
// Tiled Qalypso (Fig 16).
// ---------------------------------------------------------------

class QalypsoTileTest : public ::testing::Test
{
  protected:
    static const Workload &
    qrca8()
    {
        static FowlerSynth synth;
        static const Workload w = [] {
            WorkloadParams params;
            params.bits = 8;
            return WorkloadRegistry::instance().build("qrca", synth,
                                                      params);
        }();
        return w;
    }

    EncodedOpModel model_{IonTrapParams::paper()};
};

TEST_F(QalypsoTileTest, SingleTileHasNoTeleports)
{
    DataflowGraph g(qrca8().lowered.circuit);
    QalypsoConfig config;
    config.tileSize =
        static_cast<int>(qrca8().lowered.circuit.numQubits());
    config.factoryAreaPerTile = 4000;
    const QalypsoRunResult r = runQalypso(g, model_, config);
    EXPECT_EQ(r.tiles, 1);
    EXPECT_EQ(r.interTile2q, 0u);
    EXPECT_EQ(r.teleports, 0u);
    EXPECT_GT(r.intraTile2q, 0u);
}

TEST_F(QalypsoTileTest, TinyTilesTeleportHeavily)
{
    DataflowGraph g(qrca8().lowered.circuit);
    QalypsoConfig config;
    config.tileSize = 2;
    config.factoryAreaPerTile = 400;
    const QalypsoRunResult r = runQalypso(g, model_, config);
    EXPECT_GT(r.interTileFraction(), 0.3);
    EXPECT_GT(r.teleports, 0u);
}

TEST_F(QalypsoTileTest, TileCountCoversAllQubits)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const int nq =
        static_cast<int>(qrca8().lowered.circuit.numQubits());
    QalypsoConfig config;
    config.tileSize = 10;
    const QalypsoRunResult r = runQalypso(g, model_, config);
    EXPECT_EQ(r.tiles, (nq + 9) / 10);
    EXPECT_DOUBLE_EQ(r.totalFactoryArea,
                     config.factoryAreaPerTile * r.tiles);
}

TEST_F(QalypsoTileTest, AncillaAccountingMatchesSpeedOfData)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    QalypsoConfig config;
    config.tileSize = 16;
    const QalypsoRunResult r = runQalypso(g, model_, config);
    EXPECT_EQ(r.zerosConsumed, bw.zerosConsumed);
    EXPECT_EQ(r.pi8Consumed, bw.pi8Consumed);
}

TEST_F(QalypsoTileTest, MoreFactoryAreaNeverSlower)
{
    DataflowGraph g(qrca8().lowered.circuit);
    QalypsoConfig small;
    small.tileSize = 16;
    small.factoryAreaPerTile = 300;
    QalypsoConfig big = small;
    big.factoryAreaPerTile = 3000;
    const Time slow = runQalypso(g, model_, small).makespan;
    const Time fast = runQalypso(g, model_, big).makespan;
    EXPECT_LE(fast, slow);
}

TEST_F(QalypsoTileTest, RunsSlowerThanSpeedOfData)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    QalypsoConfig config;
    config.tileSize = 16;
    config.factoryAreaPerTile = 2000;
    const QalypsoRunResult r = runQalypso(g, model_, config);
    EXPECT_GE(r.makespan, bw.runtime);
}

TEST_F(QalypsoTileTest, OneTileIsTheFullyMultiplexedModel)
{
    // Fully-Multiplexed is the tiled organization with one tile
    // holding the whole factory budget: every counter matches.
    FowlerSynth synth;
    const std::pair<const char *, int> workloads[] = {
        {"qrca", 32}, {"qcla", 32}, {"qft", 32}, {"ladder", 64},
        {"chain", 500}};
    for (const auto &[name, bits] : workloads) {
        WorkloadParams params;
        params.bits = bits;
        const Workload w =
            WorkloadRegistry::instance().build(name, synth, params);
        const DataflowGraph g(w.lowered.circuit);
        const int nq = static_cast<int>(w.lowered.circuit.numQubits());
        for (Area budget : {500.0, 3000.0, 20000.0}) {
            MicroarchConfig fmaConfig;
            fmaConfig.areaBudget = budget;
            const ArchRunResult fma =
                ArchRegistry::instance().get("fma").run(g, model_,
                                                        fmaConfig);
            for (int tileSize : {nq, nq + 100}) {
                SCOPED_TRACE(w.name + " budget "
                             + std::to_string(budget) + " tile "
                             + std::to_string(tileSize));
                QalypsoConfig config;
                config.tileSize = tileSize;
                config.factoryAreaPerTile = budget;
                const QalypsoRunResult tiled =
                    runQalypso(g, model_, config);
                EXPECT_EQ(tiled.tiles, 1);
                EXPECT_EQ(tiled.interTile2q, 0u);
                EXPECT_EQ(tiled.makespan, fma.makespan);
                EXPECT_EQ(tiled.zerosConsumed, fma.zerosConsumed);
                EXPECT_EQ(tiled.pi8Consumed, fma.pi8Consumed);
                EXPECT_EQ(tiled.teleports, fma.teleports);
                EXPECT_EQ(tiled.totalFactoryArea, fma.ancillaArea);
            }
        }
    }
}

TEST_F(QalypsoTileTest, DeterministicAcrossRuns)
{
    DataflowGraph g(qrca8().lowered.circuit);
    QalypsoConfig config;
    config.tileSize = 8;
    const QalypsoRunResult a = runQalypso(g, model_, config);
    const QalypsoRunResult b = runQalypso(g, model_, config);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.teleports, b.teleports);
}

} // namespace
} // namespace qc
