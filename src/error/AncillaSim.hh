/**
 * @file
 * Monte Carlo simulation of the encoded-zero ancilla preparation
 * strategies of paper Section 2.3 / Figure 4, and of the pi/8
 * ancilla conversion of Section 2.4 / Figure 5b.
 *
 * Each strategy is simulated at the physical-circuit level with
 * Pauli-frame tracking: gate errors at rate pGate on every prep,
 * one-qubit gate, two-qubit gate and measurement; movement errors at
 * rate pMove per movement op (counts set by a MovementModel;
 * production charges the Fig 11 factory's kFig11Movement); CX
 * propagation of bit/phase flips; verification post-selection on
 * cat-state parity; and perfect-decoder classification of the
 * residual error on the output block.
 */

#ifndef QC_ERROR_ANCILLA_SIM_HH
#define QC_ERROR_ANCILLA_SIM_HH

#include <cstdint>

#include "common/Params.hh"
#include "common/Stats.hh"

namespace qc {

/** The four preparation strategies of Figure 4 (plus bare basic). */
enum class ZeroPrepStrategy
{
    Basic,            ///< Fig 3b only (error 1.8e-3 in the paper)
    VerifyOnly,       ///< Fig 4a (3.7e-4)
    CorrectOnly,      ///< Fig 4b (1.1e-3)
    VerifyAndCorrect, ///< Fig 4c (2.9e-5)
};

/** Display name for a strategy. */
const char *zeroPrepStrategyName(ZeroPrepStrategy strategy);

/**
 * What a correction stage does when its extracted syndrome (or the
 * logical parity of the readout word) is non-trivial.
 *
 * The paper's Fig 4b/4c circuits apply the decoded fix in place
 * (ApplyFix). A factory producing short-lived ancillae can instead
 * discard and recycle the block (DiscardOnSyndrome), which the paper
 * motivates in Section 3 and which strictly dominates in output
 * fidelity at a small yield cost. The paper ledger reports both.
 */
enum class CorrectionSemantics
{
    DiscardOnSyndrome, ///< recycle the block on any detected error
    ApplyFix,          ///< apply the decoded single-qubit patch
};

/**
 * Movement operations charged around each physical gate
 * (Section 2.2: "the addition of qubit movement error from our
 * detailed layout"). The defaults approximate the hand-optimized
 * schedule of the Fig 11 factory (30 straight moves and 8 turns
 * over ~19 gate ops) and are what the Monte Carlo tests pin;
 * production charges kFig11Movement instead.
 */
struct MovementModel
{
    /** Straight moves charged per two-qubit gate. */
    int movesPerCx = 3;
    /** Turns charged per two-qubit gate. */
    int turnsPerCx = 1;
    /** Straight moves charged per measurement (to the gate port). */
    int movesPerMeas = 1;
    /** No movement by default for 1q gates/preps (in-trap ops). */
    int movesPer1q = 0;
};

/**
 * The movement charges of the paper's one detailed layout, the
 * Figure 11 simple factory (Section 4.3). Minimum-latency routes
 * between its gate locations in different gate rows, at most two
 * columns apart, average 5 straight moves and 2 turns per two-qubit
 * gate; a measurement moves once to its gate port. The counts stay
 * the same across move and turn latencies as long as a move costs
 * time: tests/LayoutRouter.hh routes the layout, and test_layout
 * pins this constant to it over a latency grid.
 */
inline constexpr MovementModel kFig11Movement{5, 2, 1, 0};

/** Aggregated Monte Carlo estimate. */
struct PrepEstimate
{
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;    ///< uncorrectable outputs
    std::uint64_t discards = 0;    ///< verification rejections
    std::uint64_t verifyTrials = 0;///< verification attempts made
    std::uint64_t correctionDiscards = 0; ///< correction recycles
    std::uint64_t correctionTrials = 0;   ///< correction attempts

    /** Estimated output logical error rate. */
    double errorRate() const;

    /** 95% Wilson interval on the error rate. */
    Interval errorInterval() const;

    /** Estimated per-attempt verification failure rate. */
    double discardRate() const;
};

} // namespace qc

#endif // QC_ERROR_ANCILLA_SIM_HH
