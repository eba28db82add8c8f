#include "factory/ConcatenatedFactory.hh"

#include "codes/ConcatenatedCode.hh"
#include "codes/EncodedOp.hh"
#include "common/Logging.hh"
#include "error/RecursiveError.hh"

namespace qc {

namespace {

/** Internal pipeline depth of the level-2 assembly line: encode,
 *  verify, bit-correct, phase-correct. */
constexpr int assemblyStages = 4;

/**
 * Area of one block workspace: a level-1 block's seven gate sites
 * plus an equal routing share, i.e. one level-2 tile-area quantum.
 */
Area
blockWorkspaceArea()
{
    return ConcatenatedSteane::areaScalePerLevel;
}

/**
 * Crossbar overhead multiplier, matched to the measured ratio of
 * the corresponding level-1 design (e.g. Table 6: 168 crossbar /
 * 130 functional).
 */
template <typename Factory>
double
crossbarShare(const Factory &level1)
{
    const Area functional = level1.functionalUnitArea();
    return functional > 0
        ? static_cast<double>(level1.crossbarArea()) / functional
        : 1.0;
}

} // namespace

Level2ZeroFactory::Level2ZeroFactory(IonTrapParams tech,
                                     double l1AcceptRate,
                                     double l2AcceptRate)
    : tech_(tech),
      l2Accept_(l2AcceptRate),
      level1_(tech, l1AcceptRate),
      cascade_({})
{
    if (l2AcceptRate <= 0.0 || l2AcceptRate > 1.0)
        fatal("Level2ZeroFactory: acceptance rate must be in (0, 1]");

    // The Fig 4c schedule at level-2 effective latencies. The seven
    // block zeros arrive pipelined from the level-1 farm, so the
    // assembly's encode stage starts at the transversal seed
    // Hadamards (t1q) and the three disjoint CX rounds.
    const IonTrapParams eff =
        ConcatenatedSteane::effectiveTech(tech, 2);
    const Time encode = eff.t1q + 3 * eff.t2q;
    const Time verify = eff.t2q + eff.tmeas;
    const Time correct = 2 * (eff.t2q + eff.tmeas + eff.t1q);
    assemblyLatency_ = encode + verify + correct;

    // Twelve block workspaces: seven for the encoded block, three
    // for the verification cat, two for correction-ancilla staging.
    const double workspaces = 12;
    assemblyArea_ = workspaces * blockWorkspaceArea()
        * (1.0 + crossbarShare(level1_));

    CascadeStage farm;
    farm.name = "level-1 zero factory";
    farm.unitOutPerMs = level1_.throughput();
    farm.inputsPerOutput = 0; // fed by raw physical resources
    farm.unitArea = level1_.totalArea();
    farm.unitLatency = level1_.latency();

    CascadeStage assembly;
    assembly.name = "level-2 assembly";
    assembly.unitOutPerMs =
        bandwidthOf(assemblyLatency_, 1, assemblyStages) * l2Accept_
        / ConcatenatedSteane::rawBlocksPerDelivered;
    assembly.inputsPerOutput = level1ZerosPerOutput();
    assembly.unitArea = assemblyArea_;
    assembly.unitLatency = assemblyLatency_;

    cascade_ = FactoryCascade({farm, assembly});
}

Level2ZeroFactory
Level2ZeroFactory::calibrated(IonTrapParams tech,
                              const RecursiveErrorAnalysis &analysis)
{
    return Level2ZeroFactory(tech, analysis.level1AcceptRate,
                             analysis.level2AcceptRate);
}

double
Level2ZeroFactory::level1ZerosPerOutput() const
{
    // Ten level-1 zeros per raw block (seven block + three cat),
    // three raw verified blocks per delivered output, divided by
    // the per-attempt verification acceptance.
    return static_cast<double>(
               ConcatenatedSteane::subBlocksPerRawZero
               * ConcatenatedSteane::rawBlocksPerDelivered)
        / l2Accept_;
}

BandwidthPerMs
Level2ZeroFactory::throughput() const
{
    return cascade_.stages()[1].unitOutPerMs;
}

BandwidthPerMs
Level2ZeroFactory::level1InputBandwidth() const
{
    return cascade_.boundaryBandwidth(0, throughput());
}

double
Level2ZeroFactory::level1FeederFactories() const
{
    return cascade_.unitsFor(throughput())[0];
}

Area
Level2ZeroFactory::assemblyArea() const
{
    return assemblyArea_;
}

Area
Level2ZeroFactory::feederArea() const
{
    return level1FeederFactories() * level1_.totalArea();
}

Area
Level2ZeroFactory::totalArea() const
{
    return cascade_.areaFor(throughput());
}

Time
Level2ZeroFactory::latency() const
{
    // One crossbar-style transit per cascade boundary at the
    // level-2 movement scale.
    const IonTrapParams eff =
        ConcatenatedSteane::effectiveTech(tech_, 2);
    const Time transit = 2 * eff.tmove + 2 * eff.tturn;
    return cascade_.fillLatency() + transit;
}

Level2Pi8Factory::Level2Pi8Factory(IonTrapParams tech,
                                   double l1AcceptRate)
    : tech_(tech), level1_(tech, l1AcceptRate), catCascade_({})
{
    // Fig 5b one level up: cat of seven level-1 encoded qubits
    // (blocks arrive from the level-1 farm; transversal H plus
    // seven CXs), transversal interaction with the level-2 zero,
    // decode, and the measurement fix-up.
    const IonTrapParams eff =
        ConcatenatedSteane::effectiveTech(tech, 2);
    const Time cat = eff.t1q + 7 * eff.t2q;
    const Time transversal = 3 * eff.t2q;
    const Time decode = 7 * eff.t2q;
    const Time fixup = eff.tmeas + 2 * eff.t1q;
    conversionLatency_ = cat + transversal + decode + fixup;

    // Ten block workspaces: seven cat blocks, the level-2 zero
    // being converted, and two staging slots for decode/fix-up.
    const double workspaces = 10;
    const Area conversionArea = workspaces * blockWorkspaceArea()
        * (1.0 + crossbarShare(Pi8Factory(tech)));

    CascadeStage farm;
    farm.name = "level-1 zero factory";
    farm.unitOutPerMs = level1_.throughput();
    farm.inputsPerOutput = 0;
    farm.unitArea = level1_.totalArea();
    farm.unitLatency = level1_.latency();

    CascadeStage conversion;
    conversion.name = "level-2 pi/8 conversion";
    conversion.unitOutPerMs =
        bandwidthOf(conversionLatency_, 1, assemblyStages);
    conversion.inputsPerOutput =
        ConcatenatedSteane::subBlocksPerPi8Cat;
    conversion.unitArea = conversionArea;
    conversion.unitLatency = conversionLatency_;

    catCascade_ = FactoryCascade({farm, conversion});
}

BandwidthPerMs
Level2Pi8Factory::throughput() const
{
    return catCascade_.stages()[1].unitOutPerMs;
}

BandwidthPerMs
Level2Pi8Factory::level1InputBandwidth() const
{
    return catCascade_.boundaryBandwidth(0, throughput());
}

double
Level2Pi8Factory::level1FeederFactories() const
{
    return catCascade_.unitsFor(throughput())[0];
}

Area
Level2Pi8Factory::feederArea() const
{
    return level1FeederFactories() * level1_.totalArea();
}

Area
Level2Pi8Factory::totalArea() const
{
    return catCascade_.areaFor(throughput());
}

Time
Level2Pi8Factory::latency() const
{
    const IonTrapParams eff =
        ConcatenatedSteane::effectiveTech(tech_, 2);
    const Time transit = 2 * eff.tmove + 2 * eff.tturn;
    return catCascade_.fillLatency() + transit;
}

} // namespace qc
