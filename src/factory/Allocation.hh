/**
 * @file
 * Sizing ancilla-generation hardware to a target bandwidth (paper
 * Section 5.1, Table 9): how much chip area must be devoted to
 * encoded-zero factories (for QEC) and pi/8 factories (for
 * non-transversal gates, including the zero factories feeding them)
 * so a circuit can run at the speed of data.
 */

#ifndef QC_FACTORY_ALLOCATION_HH
#define QC_FACTORY_ALLOCATION_HH

#include "factory/ConcatenatedFactory.hh"
#include "factory/Pi8Factory.hh"
#include "factory/ZeroFactory.hh"

namespace qc {

/**
 * Area charged to one encoded data qubit: the Figure 10 compute
 * region, a column of seven gate macroblocks, one per physical qubit
 * of the [[7,1,3]] block (its flanking channels belong to the
 * interconnect budget).
 */
inline constexpr Area kDataQubitArea = SteaneCode::numPhysical;

/** Factory counts and areas for a bandwidth requirement. */
struct FactoryAllocation
{
    /** Code recursion level the ancillae are encoded at. */
    int codeLevel = 1;

    /** Requested encoded-zero bandwidth for QEC (per ms). */
    BandwidthPerMs zeroQecBandwidth = 0;
    /** Requested encoded-pi/8 bandwidth (per ms). */
    BandwidthPerMs pi8Bandwidth = 0;

    /** Fractional zero factories dedicated to QEC. */
    double zeroFactoriesForQec = 0;
    /** Fractional pi/8 conversion factories. */
    double pi8Factories = 0;
    /** Fractional zero factories feeding the pi/8 factories. */
    double zeroFactoriesForPi8 = 0;

    /** Area of a single zero / pi/8 factory (for conversions). */
    Area zeroFactoryArea = 0;
    Area pi8FactoryArea = 0;

    // --- Level >= 2 only: the cascade's inter-level traffic -------
    /**
     * Level-1 zeros/ms crossing the concatenation boundary into the
     * level-2 assembly and cat-feed stages (0 at level 1).
     */
    BandwidthPerMs interLevelZeroPerMs = 0;

    /**
     * Fractional level-1 zero factories embedded inside the level-2
     * cascades. Informational: their area is already included in
     * zeroFactoryArea / pi8FactoryArea.
     */
    double level1FeederFactories = 0;

    /** QEC-generation area (Table 9 column 4). */
    Area
    qecArea() const
    {
        return zeroFactoriesForQec * zeroFactoryArea;
    }

    /** pi/8-generation area including feeders (Table 9 column 5). */
    Area
    pi8Area() const
    {
        return pi8Factories * pi8FactoryArea
            + zeroFactoriesForPi8 * zeroFactoryArea;
    }

    /** All ancilla-generation area. */
    Area totalArea() const { return qecArea() + pi8Area(); }
};

/**
 * Size factories for the given bandwidths (fractional counts, as in
 * the paper's Table 9 areas).
 */
FactoryAllocation allocateForBandwidth(const ZeroFactory &zero,
                                       const Pi8Factory &pi8,
                                       BandwidthPerMs zero_qec_per_ms,
                                       BandwidthPerMs pi8_per_ms);

/**
 * Size level-2 cascades for the given *level-2* ancilla bandwidths.
 * Keeps the Table 9 split: zeroFactoriesForQec are whole level-2
 * zero cascades (level-1 feeders included in their area),
 * pi8Factories are conversion lines (cat feeders included), and
 * zeroFactoriesForPi8 are the level-2 zero cascades feeding the
 * conversions. interLevelZeroPerMs reports the total level-1 zero
 * traffic crossing the concatenation boundary.
 */
FactoryAllocation
allocateForBandwidthLevel2(const Level2ZeroFactory &zero,
                           const Level2Pi8Factory &pi8,
                           BandwidthPerMs zero_qec_per_ms,
                           BandwidthPerMs pi8_per_ms);

} // namespace qc

#endif // QC_FACTORY_ALLOCATION_HH
