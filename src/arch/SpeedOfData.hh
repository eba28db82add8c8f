/**
 * @file
 * Speed-of-data analysis of benchmark circuits (paper Section 3):
 * the Table 2 latency split, the Table 3 average ancilla
 * bandwidths, and the Figure 7 ancilla-demand profile.
 *
 * "Speed of data" (Figure 1b) is the ASAP schedule of the logical
 * dataflow graph where each gate costs only its data-interaction
 * latency plus the QEC interaction that must follow it — all
 * ancilla preparation runs off the critical path.
 */

#ifndef QC_ARCH_SPEED_OF_DATA_HH
#define QC_ARCH_SPEED_OF_DATA_HH

#include <cstdint>
#include <vector>

#include "circuit/Dataflow.hh"
#include "codes/EncodedOp.hh"

namespace qc {

/** One row of Table 2 (latencies of the serial execution). */
struct LatencySplit
{
    /** Critical path of useful data operations only (column 2). */
    Time dataOp = 0;
    /** Added critical path from QEC data/ancilla interaction. */
    Time qecInteract = 0;
    /** Added critical path from encoded ancilla preparation. */
    Time ancillaPrep = 0;

    Time total() const { return dataOp + qecInteract + ancillaPrep; }

    double dataOpShare() const
    {
        return static_cast<double>(dataOp) / total();
    }
    double qecInteractShare() const
    {
        return static_cast<double>(qecInteract) / total();
    }
    double ancillaPrepShare() const
    {
        return static_cast<double>(ancillaPrep) / total();
    }
};

/**
 * Compute the Table 2 split: three ASAP schedules with cumulative
 * latency models (data-only; data + QEC interact; fully serialized
 * with one ancilla-preparation latency per QEC step and per pi/8
 * gate, movement excluded).
 */
LatencySplit latencySplit(const DataflowGraph &graph,
                          const EncodedOpModel &model);

/** One row of Table 3 plus its underlying totals. */
struct BandwidthSummary
{
    Time runtime = 0;             ///< speed-of-data makespan
    std::uint64_t zerosConsumed = 0;
    std::uint64_t pi8Consumed = 0;

    /** Average encoded-zero bandwidth needed (per ms). */
    BandwidthPerMs
    zeroPerMs() const
    {
        return runtime ? static_cast<double>(zerosConsumed)
                             / toMs(runtime)
                       : 0;
    }

    /** Average encoded-pi/8 bandwidth needed (per ms). */
    BandwidthPerMs
    pi8PerMs() const
    {
        return runtime ? static_cast<double>(pi8Consumed)
                             / toMs(runtime)
                       : 0;
    }
};

/** Compute Table 3: ancilla totals over the speed-of-data runtime. */
BandwidthSummary bandwidthAtSpeedOfData(const DataflowGraph &graph,
                                        const EncodedOpModel &model);

/**
 * Figure 7: average number of encoded-zero ancillae that must be in
 * the system per time bin, at the speed of data. Each QEC step
 * holds its two ancillae for the QEC interaction window (the
 * just-in-time envelope).
 *
 * @param bins  number of time bins; 0 throws std::invalid_argument
 *              unless the schedule is empty
 * @return per-bin average concurrency (size = bins)
 */
std::vector<double> ancillaDemandProfile(const DataflowGraph &graph,
                                         const EncodedOpModel &model,
                                         std::size_t bins);

} // namespace qc

#endif // QC_ARCH_SPEED_OF_DATA_HH
