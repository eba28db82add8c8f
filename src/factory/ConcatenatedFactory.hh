/**
 * @file
 * Level-2 ancilla factories: cascades that consume level-1 factory
 * outputs and deliver level-2 encoded ancillae.
 *
 * Concatenation makes the designs self-similar. A level-2 encoded
 * zero is prepared by the Fig 4c verify-and-correct schedule with
 * every physical operation replaced by a level-1 encoded operation
 * (latencies from ConcatenatedSteane::effectiveTech), and every
 * physical |0> replaced by a level-1 encoded zero drawn from the
 * standard pipelined level-1 factory of Table 6. One "level-2 zero
 * factory" is therefore a two-stage FactoryCascade:
 *
 *   stage 0: fractional level-1 pipelined zero factories
 *            (ZeroFactory: 10.5 ancillae/ms, 298 mb each at the
 *            paper point), enough to keep stage 1 saturated;
 *   stage 1: one level-2 assembly line running encode / verify /
 *            bit-correct / phase-correct as a four-deep pipeline at
 *            level-2 effective latencies. Each raw block consumes
 *            ten level-1 zeros (seven for the block, three for the
 *            verification cat), and three raw verified blocks yield
 *            one delivered level-2 zero (the delivered block plus
 *            its two correction ancillae — the same divide-by-three
 *            as the Table 6 throughput derivation).
 *
 * The level-2 pi/8 factory mirrors Fig 5b one level up: a
 * seven-block cat of level-1 encoded qubits (seven level-1 zeros
 * per output), a transversal interaction with one level-2 zero, a
 * decode stage and the measurement fix-up. Its reported area
 * includes the level-1 cat-feeder factories; the level-2 zero
 * supply is provisioned separately (Allocation keeps the paper's
 * Table 9 split of pi/8 conversion vs feeder zero generation).
 *
 * Units: bandwidths in items/ms, areas in level-1 macroblocks,
 * times in ns. All quantities are symbolic in IonTrapParams.
 */

#ifndef QC_FACTORY_CONCATENATED_FACTORY_HH
#define QC_FACTORY_CONCATENATED_FACTORY_HH

#include "factory/Cascade.hh"
#include "factory/Pi8Factory.hh"
#include "factory/ZeroFactory.hh"

namespace qc {

struct RecursiveErrorAnalysis;

/** The level-2 encoded-zero factory cascade. */
class Level2ZeroFactory
{
  public:
    /**
     * @param tech          physical latencies (Tables 1 and 4)
     * @param l1AcceptRate  level-1 verification acceptance used to
     *                      size the embedded level-1 factories
     *                      (paper: 0.998 from the Monte Carlo)
     * @param l2AcceptRate  level-2 verification acceptance (level-1
     *                      logical rates are ~p^2, so this is very
     *                      close to one; 0.999 default)
     */
    explicit Level2ZeroFactory(
        IonTrapParams tech = IonTrapParams::paper(),
        double l1AcceptRate = 0.998, double l2AcceptRate = 0.999);

    /**
     * Size a level-2 factory from a recursive Monte Carlo analysis
     * (analyzeRecursiveError): both acceptance rates measured.
     */
    static Level2ZeroFactory
    calibrated(IonTrapParams tech,
               const RecursiveErrorAnalysis &analysis);

    /** The two-stage cascade (level-1 farm, level-2 assembly). */
    const FactoryCascade &cascade() const { return cascade_; }

    /** Delivered level-2 zeros/ms of one assembly line. */
    BandwidthPerMs throughput() const;

    /** Level-1 zeros/ms consumed at full rate (the inter-level
     *  bandwidth across the cascade boundary). */
    BandwidthPerMs level1InputBandwidth() const;

    /** Fractional level-1 ZeroFactory count embedded per assembly
     *  line (their area is included in totalArea()). */
    double level1FeederFactories() const;

    /** Level-1 zeros consumed per delivered level-2 zero. */
    double level1ZerosPerOutput() const;

    /** Assembly-line area (block workspaces + crossbar share). */
    Area assemblyArea() const;

    /** Area of the embedded level-1 feeder factories. */
    Area feederArea() const;

    /** Whole-cascade area per delivered-bandwidth unit of one
     *  assembly line (feeders included). */
    Area totalArea() const;

    /** Cold-start latency: level-1 fill plus the assembly pipeline. */
    Time latency() const;

    /** Level-2 verification acceptance used in the design. */
    double acceptRate() const { return l2Accept_; }

    /** The embedded level-1 factory design. */
    const ZeroFactory &level1() const { return level1_; }

    const IonTrapParams &tech() const { return tech_; }

  private:
    IonTrapParams tech_;
    double l2Accept_;
    ZeroFactory level1_;
    Time assemblyLatency_ = 0;
    Area assemblyArea_ = 0;
    FactoryCascade cascade_;
};

/** The level-2 pi/8 conversion factory. */
class Level2Pi8Factory
{
  public:
    explicit Level2Pi8Factory(
        IonTrapParams tech = IonTrapParams::paper(),
        double l1AcceptRate = 0.998);

    /** Delivered level-2 pi/8 ancillae/ms of one conversion line. */
    BandwidthPerMs throughput() const;

    /** Level-2 zeros/ms consumed at full rate (one per output). */
    BandwidthPerMs level2ZeroInputBandwidth() const
    {
        return throughput();
    }

    /** Level-1 zeros/ms consumed for cat states (seven per output). */
    BandwidthPerMs level1InputBandwidth() const;

    /** Fractional level-1 ZeroFactory count feeding the cats. */
    double level1FeederFactories() const;

    /** Area of the embedded level-1 cat-feeder factories. */
    Area feederArea() const;

    /** Conversion plus cat feeders; excludes the level-2 zero
     *  supply, which Allocation provisions separately. */
    Area totalArea() const;

    /** Cold-start conversion latency (cat feed included). */
    Time latency() const;

    const IonTrapParams &tech() const { return tech_; }

  private:
    IonTrapParams tech_;
    ZeroFactory level1_;
    Time conversionLatency_ = 0;
    FactoryCascade catCascade_;
};

} // namespace qc

#endif // QC_FACTORY_CONCATENATED_FACTORY_HH
