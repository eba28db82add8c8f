/**
 * @file
 * Monte Carlo simulation of the encoded-zero ancilla preparation
 * strategies of paper Section 2.3 / Figure 4, and of the pi/8
 * ancilla conversion of Section 2.4 / Figure 5b.
 *
 * Each strategy is simulated at the physical-circuit level with
 * Pauli-frame tracking: gate errors at rate pGate on every prep,
 * one-qubit gate, two-qubit gate and measurement; movement errors at
 * rate pMove per movement op (counts set by a MovementModel, by
 * default calibrated from the Fig 11-style factory layout); CX
 * propagation of bit/phase flips; verification post-selection on
 * cat-state parity; and perfect-decoder classification of the
 * residual error on the output block.
 */

#ifndef QC_ERROR_ANCILLA_SIM_HH
#define QC_ERROR_ANCILLA_SIM_HH

#include <cstdint>

#include "codes/SteaneCode.hh"
#include "common/Params.hh"
#include "common/Rng.hh"
#include "common/Stats.hh"
#include "error/PauliFrame.hh"

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
 * detailed layout"). Defaults approximate the hand-optimized
 * schedule of the Fig 11 factory: 30 straight moves and 8 turns
 * over ~19 gate ops, i.e. roughly 1-2 moves and half a turn per
 * gate operand; the layout module can produce calibrated instances
 * from routed layouts.
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

/** Outcome of a single simulated preparation. */
struct PrepOutcome
{
    bool discarded = false; ///< a verification failed (pre-retry)
    bool logicalX = false;  ///< uncorrectable X on the output block
    bool logicalZ = false;  ///< uncorrectable Z on the output block

    /** Any uncorrectable error. */
    bool failed() const { return logicalX || logicalZ; }
};

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

/** The two independently stratified fault classes. */
enum class FaultClass
{
    Gate, ///< gate/prep/measurement error at pGate
    Move, ///< movement (straight move or turn) error at pMove
};

/**
 * Where the scalar simulator places its faults. Each class schedules
 * `faults` faults among its first `sites` realized sites by the
 * sequential r-of-m rule: a site with r faults left among m
 * remaining slots faults with probability r/m, so the faulting sites
 * are a uniformly random r-subset even though sites are revealed one
 * at a time. Sites past the first `sites` draw the natural
 * Bernoulli(p); with nothing scheduled (the default) that is every
 * site, the plain Monte Carlo stream. Every simulated trial rearms
 * `seen` and `left`; the stratified sampler
 * (error/ImportanceSampler.hh) fills in `sites` and `faults`.
 *
 * A dry run counts each class's sites in `seen`, never faults and
 * draws no random number. It also pins the pi/8 fix-up coin to "no
 * fix-up", so the counts are the minimum over every realized path —
 * the bound the r-of-m rule relies on.
 */
struct FaultSchedule
{
    struct Class
    {
        std::uint64_t sites = 0;  ///< scheduled (nominal-path) sites
        std::uint64_t faults = 0; ///< faults to place among them
        std::uint64_t seen = 0;   ///< sites visited this trial
        std::uint64_t left = 0;   ///< faults not yet placed
    };

    Class gate;
    Class move;
    bool dryRun = false;
};

/**
 * Scalar reference simulator for encoded-ancilla preparation error
 * rates: one trial at a time. BatchAncillaSim is the production
 * engine; this one is its test oracle and the stratified sampler's
 * engine.
 */
class AncillaPrepSimulator
{
  public:
    AncillaPrepSimulator(
        ErrorParams errors, MovementModel movement, std::uint64_t seed,
        CorrectionSemantics semantics =
            CorrectionSemantics::DiscardOnSyndrome);

    /**
     * Simulate one preparation with the given strategy. Verified
     * strategies retry each block until it passes verification
     * (discards are tallied, matching the factory's recycling of
     * failed blocks).
     */
    PrepOutcome simulateOnce(ZeroPrepStrategy strategy);

    /** One simulateOnce call per trial, aggregated. */
    PrepEstimate estimateScalar(ZeroPrepStrategy strategy,
                                std::uint64_t trials);

    /**
     * Simulate one pi/8 ancilla conversion (Fig 5b): a verified and
     * corrected zero ancilla plus a 7-qubit cat state, transversal
     * interaction, decode and measurement fix-up. The outcome
     * classifies the residual error on the produced pi/8 block.
     */
    PrepOutcome simulatePi8Once();

    /**
     * One simulatePi8Once call per trial, aggregated; only the
     * verification tallies are reported.
     */
    PrepEstimate estimateScalarPi8(std::uint64_t trials);

    /** The fault placement every following trial uses. */
    FaultSchedule &faultSchedule() { return schedule_; }

  private:
    /** One trial: a zero prep, then the pi/8 conversion if `pi8`. */
    PrepOutcome runTrial(ZeroPrepStrategy strategy, bool pi8);

    /** runTrial per trial, with the engine's tallies over them. */
    PrepEstimate tally(ZeroPrepStrategy strategy, bool pi8,
                       std::uint64_t trials);

    /** Run the Fig 3b basic encode on block at base offset. */
    void basicEncode(int base);

    /**
     * Verify block with a 3-qubit cat (measure the weight-3 logical
     * Z representative). Returns true if accepted. Tallies a
     * verification attempt.
     */
    bool verifyBlock(int base);

    /** Prepare a block with optional verification (with retries). */
    void prepareBlock(int base, bool verified);

    /**
     * Prepare block A and correct it, bit stage then phase stage,
     * recycling the whole pipeline whenever a stage discards.
     */
    void correctedPrep(bool verified);

    /**
     * One syndrome extraction on block A with the prepared ancilla
     * block: a transversal CX (data->ancilla for the bit stage,
     * ancilla->data for the phase stage) and the ancilla's seven
     * readouts (Z basis, resp. X basis). Returns the readout word:
     * its Hamming syndrome and parity locate A's X (resp. Z)
     * errors. Tallies a correction attempt.
     */
    SteaneCode::Mask extract(bool phase, int baseA, int baseAnc);

    /**
     * Apply the parity-aware patch for a readout word
     * (SteaneCode::fixFor) to block A, one gate error per patched
     * qubit. Matching the readout's coset means correlated
     * even-parity patterns are not "completed" into a logical.
     */
    void patch(bool phase, int baseA, SteaneCode::Mask readout);

    /**
     * One correction stage. In the factory setting a detected error
     * discards the block instead of patching it — ancillae are
     * cheap to recycle (Section 3) — so under DiscardOnSyndrome this
     * returns false when the readout's syndrome or logical parity
     * is non-trivial; under ApplyFix it patches and returns true.
     */
    bool correct(bool phase, int baseA, int baseAnc);

    /**
     * ApplyFix phase correction for verified pipelines: Shor-style
     * repeated syndrome extraction. Fresh verified ancillas extract
     * the Z syndrome (and logical readout parity) until two
     * consecutive extractions agree; only then is the patch
     * applied. A single fault — in an ancilla, a coupling, or a
     * readout — corrupts at most one extraction and so can never
     * confirm a wrong multi-qubit patch, closing the first-order
     * path where an ancilla's correlated Z errors (which
     * verification cannot screen) would be patched onto the output
     * block.
     */
    void phaseCorrectConfirmed(int baseA, int baseC);

    /** The Fig 5b conversion of the corrected zero on block A. */
    void convertPi8();

    /** Movement error charges. */
    void chargeCxMovement(int a, int b);
    void chargeMeasMovement(int q);

    /** Fault sites: the schedule's fire decision + kind draw. */
    bool siteFault(FaultClass cls);
    void inject1(FaultClass cls, int q);
    void inject2(FaultClass cls, int a, int b);

    /** Gate wrappers (apply + inject). */
    void gateH(int q);
    void gatePrep(int q);
    void gateCx(int control, int target);

    /**
     * Measure q in the X basis (`xBasis`) or the Z basis: returns
     * whether the *recorded outcome* flipped, i.e. a Z (resp. X)
     * error or a readout fault.
     */
    bool measureFlip(bool xBasis, int q);

    /** Classify the residual on a block as a PrepOutcome. */
    PrepOutcome classify(int base) const;

    ErrorParams errors_;
    MovementModel movement_;
    CorrectionSemantics semantics_;
    Rng rng_;
    PauliFrame frame_;
    FaultSchedule schedule_;
    bool scheduled_ = false; ///< this trial's schedule is not empty
    std::uint64_t verifyAttempts_ = 0;
    std::uint64_t verifyFailures_ = 0;
    std::uint64_t correctionAttempts_ = 0;
    std::uint64_t correctionFailures_ = 0;
};

} // namespace qc

#endif // QC_ERROR_ANCILLA_SIM_HH
