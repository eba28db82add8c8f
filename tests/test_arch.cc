/**
 * @file
 * Tests for the architecture analyses: the Table 2/3 speed-of-data
 * machinery, the Figure 7 demand profile, the Figure 8 throttled
 * runs, and the Figure 15 microarchitecture orderings — on small
 * kernels for test speed (the bench binaries run the 32-bit paper
 * configuration).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "arch/Microarch.hh"
#include "arch/SpeedOfData.hh"
#include "kernels/Workloads.hh"

namespace qc {
namespace {

class ArchTest : public ::testing::Test
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

TEST_F(ArchTest, ChainCircuitLatencySplitIsExact)
{
    // One qubit, three H gates: data 3 us, QEC 3 x 61 us, prep
    // 3 x 264 us.
    Circuit c(1);
    c.h(0).h(0).h(0);
    DataflowGraph g(c);
    const LatencySplit split = latencySplit(g, model_);
    EXPECT_EQ(split.dataOp, usec(3));
    EXPECT_EQ(split.qecInteract, usec(183));
    EXPECT_EQ(split.ancillaPrep, usec(792));
}

TEST_F(ArchTest, SplitSharesSumToOne)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const LatencySplit split = latencySplit(g, model_);
    EXPECT_NEAR(split.dataOpShare() + split.qecInteractShare()
                    + split.ancillaPrepShare(),
                1.0, 1e-12);
}

TEST_F(ArchTest, AncillaPrepDominatesAsInTable2)
{
    // Table 2: preparation is ~71-78% of the serialized runtime;
    // data ops only ~5%.
    DataflowGraph g(qrca8().lowered.circuit);
    const LatencySplit split = latencySplit(g, model_);
    EXPECT_GT(split.ancillaPrepShare(), 0.5);
    EXPECT_LT(split.dataOpShare(), 0.2);
    EXPECT_GT(split.ancillaPrepShare(), split.qecInteractShare());
}

TEST_F(ArchTest, BandwidthCountsMatchCensus)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    const GateCensus census = qrca8().lowered.circuit.census();
    EXPECT_EQ(bw.pi8Consumed, census.nonTransversal1q());
    EXPECT_GT(bw.zerosConsumed, 2 * census.nonTransversal1q());
    EXPECT_GT(bw.zeroPerMs(), 0.0);
}

TEST_F(ArchTest, DemandProfileIntegratesToDemand)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const auto profile = ancillaDemandProfile(g, model_, 50);
    ASSERT_EQ(profile.size(), 50u);
    double peak = 0;
    for (double v : profile)
        peak = std::max(peak, v);
    EXPECT_GT(peak, 0.0);
    // Average concurrency x runtime must equal total
    // ancilla-occupancy time: zeros x window / runtime on average.
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    double mean = 0;
    for (double v : profile)
        mean += v;
    mean /= static_cast<double>(profile.size());
    // Sanity: mean concurrency is positive and bounded by total
    // zeros (loose envelope).
    EXPECT_GT(mean, 0.0);
    EXPECT_LT(mean, static_cast<double>(bw.zerosConsumed));
}

TEST_F(ArchTest, ThrottledRunUnconstrainedMatchesSpeedOfData)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    const ThrottledResult run = throttledRun(g, model_, 0.0);
    EXPECT_EQ(run.makespan, bw.runtime);
    EXPECT_EQ(run.zerosConsumed, bw.zerosConsumed);
}

TEST_F(ArchTest, ThrottledRunMonotonicInRate)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    const double avg = bw.zeroPerMs();
    Time last = 0;
    // Rates well below / at / well above the average bandwidth.
    for (double frac : {4.0, 1.0, 0.25, 0.1}) {
        const ThrottledResult run =
            throttledRun(g, model_, avg * frac);
        if (last != 0) {
            EXPECT_GE(run.makespan, last) << "frac=" << frac;
        }
        last = run.makespan;
    }
}

TEST_F(ArchTest, StarvedRunApproachesSupplyBound)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    const double rate = bw.zeroPerMs() * 0.1; // 10% of the need
    const ThrottledResult run = throttledRun(g, model_, rate);
    const double supply_bound_ms =
        static_cast<double>(bw.zerosConsumed) / rate;
    EXPECT_GT(toMs(run.makespan), 0.9 * supply_bound_ms);
}

TEST_F(ArchTest, GenerousThroughputNearsSpeedOfData)
{
    DataflowGraph g(qrca8().lowered.circuit);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(g, model_);
    const ThrottledResult run =
        throttledRun(g, model_, bw.zeroPerMs() * 20.0);
    EXPECT_LT(toMs(run.makespan), 1.3 * toMs(bw.runtime));
}

// ---------------------------------------------------------------
// Microarchitecture comparisons (Figure 15 orderings).
// ---------------------------------------------------------------

class MicroarchTest : public ArchTest
{
  protected:
    ArchRunResult
    run(const std::string &arch, int k = 1, Area budget = 3000,
        int cacheSlots = 8)
    {
        DataflowGraph g(qrca8().lowered.circuit);
        MicroarchConfig config;
        config.generatorsPerSite = k;
        config.areaBudget = budget;
        config.cacheSlots = cacheSlots;
        return ArchRegistry::instance().get(arch).run(g, model_,
                                                      config);
    }
};

TEST_F(MicroarchTest, NamesAreStable)
{
    const ArchRegistry &registry = ArchRegistry::instance();
    EXPECT_EQ(registry.keys(),
              (std::vector<std::string>{"cqla", "fma", "gcqla", "gqla",
                                        "qla"}));
    EXPECT_EQ(registry.get("qla").name(), "QLA");
    EXPECT_EQ(registry.get("gqla").name(), "GQLA");
    EXPECT_EQ(registry.get("cqla").name(), "CQLA");
    EXPECT_EQ(registry.get("gcqla").name(), "GCQLA");
    EXPECT_EQ(registry.get("fma").name(), "Fully-Multiplexed");
}

/** Runs `body`, expecting std::invalid_argument naming `field`. */
template <typename Body>
void
expectRejects(const std::string &field, Body body)
{
    try {
        body();
        ADD_FAILURE() << "expected std::invalid_argument naming "
                      << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST_F(MicroarchTest, RejectsKnobsThatWouldHandOutFreeAncillae)
{
    // No factory area must not mean unlimited supply, and a cache
    // must not be charged for fewer slots than it simulates.
    for (Area budget : {0.0, -500.0})
        expectRejects("areaBudget", [&] { run("fma", 1, budget); });
    for (const char *arch : {"cqla", "gcqla"}) {
        for (int slots : {1, 0, -8}) {
            expectRejects("cacheSlots",
                          [&] { run(arch, 1, 3000, slots); });
        }
    }
    DataflowGraph g(qrca8().lowered.circuit);
    for (Area area : {0.0, -1.0}) {
        QalypsoConfig config;
        config.factoryAreaPerTile = area;
        expectRejects("factoryAreaPerTile",
                      [&] { runQalypso(g, model_, config); });
    }
    // The smallest honest values still run.
    EXPECT_GT(run("fma", 1, 1).makespan, run("fma").makespan);
    EXPECT_GT(run("cqla", 1, 3000, 2).makespan, 0);
}

TEST_F(MicroarchTest, MoreGeneratorsNeverSlower)
{
    const ArchRunResult k1 = run("qla", 1);
    const ArchRunResult k4 = run("gqla", 4);
    const ArchRunResult k16 = run("gqla", 16);
    EXPECT_GE(k1.makespan, k4.makespan);
    EXPECT_GE(k4.makespan, k16.makespan);
    EXPECT_LT(k1.ancillaArea, k4.ancillaArea);
}

TEST_F(MicroarchTest, FmaBeatsQlaAtEqualArea)
{
    // The headline claim: at matched generation area the fully
    // multiplexed organization is much faster (shared factories
    // are never idle while QLA's per-qubit generators are).
    const ArchRunResult qla = run("qla", 1);
    const ArchRunResult fma = run("fma", 1, qla.ancillaArea);
    EXPECT_LT(fma.makespan * 2, qla.makespan);
}

TEST_F(MicroarchTest, CqlaPlateausAboveFma)
{
    // Even with lavish generator provisioning, CQLA keeps paying
    // cache misses; FMA with a huge budget approaches speed of
    // data.
    const ArchRunResult cqla = run("gcqla", 64);
    const ArchRunResult fma = run("fma", 1, 500000);
    EXPECT_GT(cqla.makespan, fma.makespan);
    EXPECT_GT(cqla.cacheMisses, 0u);
}

TEST_F(MicroarchTest, QlaPlateauNearFmaPlateau)
{
    // Section 5.2: QLA has no cache misses, so with enough
    // generators it plateaus within a small factor of FMA.
    const ArchRunResult qla = run("gqla", 64);
    const ArchRunResult fma = run("fma", 1, 500000);
    EXPECT_LT(qla.makespan, 4 * fma.makespan);
    EXPECT_GE(qla.makespan, fma.makespan);
}

TEST_F(MicroarchTest, QlaChargesTeleportsFor2qGates)
{
    const ArchRunResult qla = run("qla", 1);
    const GateCensus census = qrca8().lowered.circuit.census();
    EXPECT_EQ(qla.teleports,
              census.of(GateKind::CX) + census.of(GateKind::CZ));
}

TEST_F(MicroarchTest, CacheMissRateFallsWithLargerCache)
{
    const ArchRunResult small_run = run("cqla", 1, 3000, 4);
    const ArchRunResult big_run = run("cqla", 1, 3000, 20);
    EXPECT_GT(small_run.missRate(), big_run.missRate());
    EXPECT_GE(small_run.makespan, big_run.makespan);
}

TEST_F(MicroarchTest, FmaLargerBudgetNeverSlower)
{
    Time last = 0;
    for (Area budget : {500.0, 2000.0, 8000.0, 64000.0}) {
        const ArchRunResult r = run("fma", 1, budget);
        if (last != 0) {
            EXPECT_LE(r.makespan, last) << "budget=" << budget;
        }
        last = r.makespan;
    }
}

TEST_F(MicroarchTest, AncillaAccountingConsistentAcrossArchs)
{
    const ArchRunResult qla = run("qla", 1);
    const ArchRunResult fma = run("fma");
    const ArchRunResult cqla = run("cqla", 1);
    EXPECT_EQ(qla.zerosConsumed, fma.zerosConsumed);
    EXPECT_EQ(qla.zerosConsumed, cqla.zerosConsumed);
    EXPECT_EQ(qla.pi8Consumed, fma.pi8Consumed);
}

} // namespace
} // namespace qc
