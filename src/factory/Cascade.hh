/**
 * @file
 * Factory cascades: chains of production stages where each stage
 * consumes the outputs of the one below it.
 *
 * Two cascade families live here:
 *
 *  - FactoryCascade, the general sizing abstraction. A stage is
 *    described by one unit's delivered bandwidth, its per-output
 *    consumption of the upstream product, its area and its fill
 *    latency; the cascade sizes fractional unit counts at every
 *    stage for a target top-level output bandwidth and reports the
 *    inter-stage (inter-level) bandwidths. The level-2 concatenated
 *    factories (ConcatenatedFactory.hh) are two-stage instances:
 *    level-1 pipelined factories feeding a level-2 assembly line.
 *
 *  - CascadeModel, the recursive exact pi/2^k gate construction of
 *    paper Figure 6 (Section 2.5 / 4.4.2): a cascade of pi/2^i
 *    ancilla factories (i = 3..k) with k-2 CX and X gates, where
 *    each measurement has an equal chance of requiring the next,
 *    larger rotation. The paper does not use this construction in
 *    its main circuits (it requires arbitrary-precision physical
 *    rotations) but analyzes its data-critical-path advantage; this
 *    model backs the paper ledger's cascade ablation rows.
 *
 * Units: bandwidths in items/ms, areas in macroblocks, times in ns.
 */

#ifndef QC_FACTORY_CASCADE_HH
#define QC_FACTORY_CASCADE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/Params.hh"
#include "common/Types.hh"

namespace qc {

/** One production stage of a multi-level factory cascade. */
struct CascadeStage
{
    /** Display name ("level-1 zero factory", "level-2 assembly"). */
    std::string name;

    /** Delivered outputs per millisecond of ONE unit of this stage. */
    BandwidthPerMs unitOutPerMs = 0;

    /**
     * Outputs of the stage below consumed per delivered output of
     * this stage (0 for the bottom stage, which is fed by raw
     * physical resources).
     */
    double inputsPerOutput = 0;

    /** Macroblock area of one unit. */
    Area unitArea = 0;

    /** Fill latency of one unit (first output after a cold start). */
    Time unitLatency = 0;
};

/**
 * A linear chain of production stages, bottom (physical-fed) first.
 * Sizing is fractional, as in the paper's Table 9 areas: unit
 * counts scale continuously with the requested bandwidth.
 */
class FactoryCascade
{
  public:
    explicit FactoryCascade(std::vector<CascadeStage> stages)
        : stages_(std::move(stages))
    {
    }

    const std::vector<CascadeStage> &stages() const { return stages_; }

    /**
     * Output bandwidth (items/ms) crossing the boundary *above*
     * stage `stage` when the top stage delivers `outPerMs`: the
     * inter-level bandwidth requirement.
     */
    BandwidthPerMs
    boundaryBandwidth(std::size_t stage, BandwidthPerMs outPerMs) const
    {
        BandwidthPerMs demand = outPerMs;
        for (std::size_t s = stages_.size(); s-- > stage + 1;)
            demand *= stages_[s].inputsPerOutput;
        return demand;
    }

    /** Fractional unit count per stage at `outPerMs` delivered. */
    std::vector<double>
    unitsFor(BandwidthPerMs outPerMs) const
    {
        std::vector<double> units(stages_.size(), 0.0);
        for (std::size_t s = 0; s < stages_.size(); ++s) {
            const BandwidthPerMs demand =
                boundaryBandwidth(s, outPerMs);
            if (stages_[s].unitOutPerMs > 0)
                units[s] = demand / stages_[s].unitOutPerMs;
        }
        return units;
    }

    /** Total macroblock area of all stages at `outPerMs`. */
    Area
    areaFor(BandwidthPerMs outPerMs) const
    {
        Area area = 0;
        const std::vector<double> units = unitsFor(outPerMs);
        for (std::size_t s = 0; s < stages_.size(); ++s)
            area += units[s] * stages_[s].unitArea;
        return area;
    }

    /** Cold-start fill latency: one item traverses every stage. */
    Time
    fillLatency() const
    {
        Time total = 0;
        for (const CascadeStage &stage : stages_)
            total += stage.unitLatency;
        return total;
    }

  private:
    std::vector<CascadeStage> stages_;
};

/** Analytic model of the Figure 6 cascade. */
class CascadeModel
{
  public:
    /**
     * Expected number of CX (ancilla interaction) gates on the data
     * critical path for an exact pi/2^k gate: the first interaction
     * always happens; stage i+1 runs only if stage i measured the
     * "wrong" state (probability 1/2 each).
     */
    static double
    expectedCxCount(int k)
    {
        if (k <= 2)
            return k >= 1 ? 1.0 : 0.0;
        const int stages = k - 2;
        double expected = 0.0;
        double prob = 1.0;
        for (int i = 0; i < stages; ++i) {
            expected += prob;
            prob *= 0.5;
        }
        return expected;
    }

    /** Expected X (fix-up) gates: one fewer than the CX count. */
    static double
    expectedXCount(int k)
    {
        const double cx = expectedCxCount(k);
        return cx > 1.0 ? cx - 1.0 : 0.0;
    }

    /**
     * Expected data-path latency of an exact pi/2^k via the
     * cascade: each stage is an ancilla interaction (CX), a
     * measurement, and a conditional X.
     */
    static Time
    expectedDataLatency(int k, const IonTrapParams &tech)
    {
        const double stages = expectedCxCount(k);
        const double per_stage = static_cast<double>(
            tech.t2q + tech.tmeas + tech.t1q);
        return static_cast<Time>(stages * per_stage);
    }

    /** Worst-case latency: every stage fires (k-2 stages). */
    static Time
    worstCaseDataLatency(int k, const IonTrapParams &tech)
    {
        const int stages = k <= 2 ? (k >= 1 ? 1 : 0) : k - 2;
        return stages * (tech.t2q + tech.tmeas + tech.t1q);
    }
};

} // namespace qc

#endif // QC_FACTORY_CASCADE_HH
