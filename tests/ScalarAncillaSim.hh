/**
 * @file
 * The scalar reference engine for the encoded-ancilla Monte Carlo:
 * one trial at a time on a 64-qubit Pauli frame, with an r-of-m
 * fault schedule and a dry run that define one stratum of the
 * estimator in error/ImportanceSampler.hh. It is the oracle
 * BatchAncillaSim must match: per-trial frame algebra
 * (BatchPauliFrame vs PauliFrame), naive error rates, each stratum's
 * conditional failure rate, and the nominal-path site counts. Slow:
 * a few microseconds per trial.
 */

#ifndef QC_TESTS_SCALAR_ANCILLA_SIM_HH
#define QC_TESTS_SCALAR_ANCILLA_SIM_HH

#include <cassert>
#include <cstdint>

#include "codes/SteaneCode.hh"
#include "common/Params.hh"
#include "common/Rng.hh"
#include "error/AncillaSim.hh"

namespace qc::scalar {

/** X/Z error masks over up to 64 physical qubits. */
class PauliFrame
{
  public:
    /** Clear all tracked errors. */
    void
    clear()
    {
        x_ = 0;
        z_ = 0;
    }

    /** Raw X-error mask. */
    std::uint64_t xMask() const { return x_; }

    /** Raw Z-error mask. */
    std::uint64_t zMask() const { return z_; }

    /** X-error bits within [base, base+width). */
    std::uint64_t
    xBits(int base, int width) const
    {
        assert(base >= 0 && width >= 0 && base + width <= 64);
        return width <= 0 ? 0 : (x_ >> base) & maskOf(width);
    }

    /** Z-error bits within [base, base+width). */
    std::uint64_t
    zBits(int base, int width) const
    {
        assert(base >= 0 && width >= 0 && base + width <= 64);
        return width <= 0 ? 0 : (z_ >> base) & maskOf(width);
    }

    /** True if qubit q carries an X component. */
    bool hasX(int q) const { return (x_ >> q) & 1; }

    /** True if qubit q carries a Z component. */
    bool hasZ(int q) const { return (z_ >> q) & 1; }

    /** Manually toggle an X error (used for applied corrections). */
    void flipX(int q) { x_ ^= bit(q); }

    /** Manually toggle a Z error. */
    void flipZ(int q) { z_ ^= bit(q); }

    /** Forget all errors on [base, base+width) (qubit discarded). */
    void
    clearRange(int base, int width)
    {
        assert(base >= 0 && width >= 0 && base + width <= 64);
        if (width <= 0)
            return;
        // maskOf(width) << base is safe: width >= 1 implies
        // base <= 63 here, and base + width == 64 keeps the shifted
        // mask inside the word.
        const std::uint64_t m = ~(maskOf(width) << base);
        x_ &= m;
        z_ &= m;
    }

    /** @name Clifford conjugation. */
    /** @{ */

    /** Hadamard: X <-> Z. */
    void
    applyH(int q)
    {
        const std::uint64_t xq = x_ & bit(q);
        const std::uint64_t zq = z_ & bit(q);
        x_ = (x_ & ~bit(q)) | zq;
        z_ = (z_ & ~bit(q)) | xq;
    }

    /** Phase gate: X -> Y (adds a Z component on X errors). */
    void
    applyS(int q)
    {
        if (hasX(q))
            z_ ^= bit(q);
    }

    /** CX: X on control spreads to target; Z on target to control. */
    void
    applyCx(int control, int target)
    {
        if (hasX(control))
            x_ ^= bit(target);
        if (hasZ(target))
            z_ ^= bit(control);
    }

    /** CZ: X on either side deposits Z on the other. */
    void
    applyCz(int a, int b)
    {
        if (hasX(a))
            z_ ^= bit(b);
        if (hasX(b))
            z_ ^= bit(a);
    }

    /** @} */

    /** @name Error injection. */
    /** @{ */

    /** Uniform non-identity Pauli on one qubit, with probability p. */
    void
    inject1q(Rng &rng, double p, int q)
    {
        if (!rng.bernoulli(p))
            return;
        applyUniform1(rng, q);
    }

    /** Uniform non-identity two-qubit Pauli, with probability p. */
    void
    inject2q(Rng &rng, double p, int a, int b)
    {
        if (!rng.bernoulli(p))
            return;
        applyUniform2(rng, a, b);
    }

    /**
     * The hit path of inject1q without the Bernoulli decision:
     * apply a uniformly drawn non-identity Pauli to q. Lets a
     * fault schedule (below) own the fire/no-fire decision while
     * the kind draw stays identical to inject1q.
     */
    void
    applyUniform1(Rng &rng, int q)
    {
        applyPauli(static_cast<int>(rng.below(3)) + 1, q);
    }

    /** Two-qubit counterpart of applyUniform1 (inject2q's hit path). */
    void
    applyUniform2(Rng &rng, int a, int b)
    {
        const int pauli = static_cast<int>(rng.below(15)) + 1;
        applyPauli(pauli & 3, a);
        applyPauli(pauli >> 2, b);
    }

    /** @} */

  private:
    static std::uint64_t
    bit(int q)
    {
        assert(q >= 0 && q < 64);
        return std::uint64_t{1} << q;
    }

    static std::uint64_t
    maskOf(int width)
    {
        assert(width >= 0);
        if (width <= 0)
            return 0;
        return width >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << width) - 1;
    }

    /** Apply Pauli code (0=I, 1=X, 2=Z, 3=Y) to qubit q. */
    void
    applyPauli(int code, int q)
    {
        if (code & 1)
            x_ ^= bit(q);
        if (code & 2)
            z_ ^= bit(q);
    }

    std::uint64_t x_ = 0;
    std::uint64_t z_ = 0;
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
 * `seen` and `left`; a test fills in `sites` and `faults` to run one
 * stratum of the estimator in error/ImportanceSampler.hh.
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
 * engine; this one is its test oracle.
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

// Block base offsets within the Pauli frame.
inline constexpr int blockA = 0;   // output block
inline constexpr int blockB = 7;   // bit-correction ancilla
inline constexpr int blockC = 14;  // phase-correction ancilla
inline constexpr int catBase = 21; // cat qubits (3 or 7)

inline
AncillaPrepSimulator::AncillaPrepSimulator(ErrorParams errors,
                                           MovementModel movement,
                                           std::uint64_t seed,
                                           CorrectionSemantics semantics)
    : errors_(errors), movement_(movement), semantics_(semantics),
      rng_(seed)
{
}

// Every stochastic fault site funnels through siteFault. With
// nothing scheduled it draws the natural Bernoulli(p), the plain
// Monte Carlo stream, behind a single flag test.
inline bool
AncillaPrepSimulator::siteFault(FaultClass cls)
{
    const double p =
        cls == FaultClass::Gate ? errors_.pGate : errors_.pMove;
    if (!scheduled_) [[likely]]
        return rng_.bernoulli(p);
    FaultSchedule::Class &c =
        cls == FaultClass::Gate ? schedule_.gate : schedule_.move;
    if (schedule_.dryRun) {
        ++c.seen;
        return false;
    }
    if (c.seen >= c.sites) // past the scheduled sites
        return rng_.bernoulli(p);
    const std::uint64_t slots = c.sites - c.seen;
    ++c.seen;
    if (c.left == 0)
        return false;
    if (rng_.below(slots) < c.left) {
        --c.left;
        return true;
    }
    return false;
}

inline void
AncillaPrepSimulator::inject1(FaultClass cls, int q)
{
    if (siteFault(cls))
        frame_.applyUniform1(rng_, q);
}

inline void
AncillaPrepSimulator::inject2(FaultClass cls, int a, int b)
{
    if (siteFault(cls))
        frame_.applyUniform2(rng_, a, b);
}

inline void
AncillaPrepSimulator::chargeCxMovement(int a, int b)
{
    for (int i = 0; i < movement_.movesPerCx; ++i)
        inject1(FaultClass::Move, (i & 1) ? b : a);
    for (int i = 0; i < movement_.turnsPerCx; ++i)
        inject1(FaultClass::Move, (i & 1) ? b : a);
}

inline void
AncillaPrepSimulator::chargeMeasMovement(int q)
{
    for (int i = 0; i < movement_.movesPerMeas; ++i)
        inject1(FaultClass::Move, q);
}

inline void
AncillaPrepSimulator::gateH(int q)
{
    for (int i = 0; i < movement_.movesPer1q; ++i)
        inject1(FaultClass::Move, q);
    frame_.applyH(q);
    inject1(FaultClass::Gate, q);
}

inline void
AncillaPrepSimulator::gatePrep(int q)
{
    frame_.clearRange(q, 1);
    inject1(FaultClass::Gate, q);
}

inline void
AncillaPrepSimulator::gateCx(int control, int target)
{
    chargeCxMovement(control, target);
    frame_.applyCx(control, target);
    inject2(FaultClass::Gate, control, target);
}

inline bool
AncillaPrepSimulator::measureFlip(bool xBasis, int q)
{
    chargeMeasMovement(q);
    const bool error = xBasis ? frame_.hasZ(q) : frame_.hasX(q);
    const bool flip = error ^ siteFault(FaultClass::Gate);
    frame_.clearRange(q, 1); // qubit leaves the computation
    return flip;
}

inline void
AncillaPrepSimulator::basicEncode(int base)
{
    for (int q = 0; q < SteaneCode::numPhysical; ++q)
        gatePrep(base + q);
    for (int seed : SteaneCode::encoderSeeds)
        gateH(base + seed);
    for (const auto &cx : SteaneCode::encoderCxs)
        gateCx(base + cx.control, base + cx.target);
}

inline bool
AncillaPrepSimulator::verifyBlock(int base)
{
    ++verifyAttempts_;

    // 3-qubit cat state.
    for (int i = 0; i < 3; ++i)
        gatePrep(catBase + i);
    gateH(catBase);
    gateCx(catBase, catBase + 1);
    gateCx(catBase + 1, catBase + 2);

    // Shor-style parity check of the weight-3 logical Z
    // representative (CZ orientation with X-basis cat readout; the
    // factory layout realizes the equivalent CX-conjugated form).
    int cat = catBase;
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        if (SteaneCode::verifyMask & (SteaneCode::Mask{1} << q)) {
            chargeCxMovement(base + q, cat);
            frame_.applyCz(base + q, cat);
            inject2(FaultClass::Gate, base + q, cat);
            ++cat;
        }
    }

    bool parity_flip = false;
    for (int i = 0; i < 3; ++i)
        parity_flip ^= measureFlip(/*xBasis=*/true, catBase + i);

    if (parity_flip) {
        ++verifyFailures_;
        return false;
    }
    return true;
}

inline void
AncillaPrepSimulator::prepareBlock(int base, bool verified)
{
    do {
        frame_.clearRange(base, SteaneCode::numPhysical);
        basicEncode(base);
    } while (verified && !verifyBlock(base));
}

inline SteaneCode::Mask
AncillaPrepSimulator::extract(bool phase, int base_a, int base_anc)
{
    ++correctionAttempts_;

    // The bit stage's CX data->ancilla copies the data's X errors
    // onto the ancilla, read out in the Z basis; the phase stage's
    // CX ancilla->data copies Z errors, read out in the X basis.
    // The ancilla's own codeword bits are syndromeless.
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        if (phase)
            gateCx(base_anc + q, base_a + q);
        else
            gateCx(base_a + q, base_anc + q);
    }
    SteaneCode::Mask readout = 0;
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        if (measureFlip(/*xBasis=*/phase, base_anc + q))
            readout |= SteaneCode::Mask{1} << q;
    }
    return readout;
}

inline void
AncillaPrepSimulator::patch(bool phase, int base_a,
                            SteaneCode::Mask readout)
{
    const SteaneCode::Mask fix = SteaneCode::fixFor(
        SteaneCode::syndromeOf(readout), SteaneCode::parity(readout));
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        if (fix & (SteaneCode::Mask{1} << q)) {
            if (phase)
                frame_.flipZ(base_a + q);
            else
                frame_.flipX(base_a + q);
            inject1(FaultClass::Gate, base_a + q);
        }
    }
}

inline bool
AncillaPrepSimulator::correct(bool phase, int base_a, int base_anc)
{
    const SteaneCode::Mask readout = extract(phase, base_a, base_anc);
    if (semantics_ == CorrectionSemantics::ApplyFix) {
        patch(phase, base_a, readout);
        return true;
    }
    if (SteaneCode::syndromeOf(readout) != 0
        || SteaneCode::parity(readout)) {
        ++correctionFailures_;
        return false;
    }
    return true;
}

inline void
AncillaPrepSimulator::phaseCorrectConfirmed(int base_a, int base_c)
{
    bool have = false;
    SteaneCode::Mask prev = 0;
    for (;;) {
        prepareBlock(base_c, /*verified=*/true);
        const SteaneCode::Mask readout =
            extract(/*phase=*/true, base_a, base_c);
        if (have
            && SteaneCode::syndromeOf(readout)
                   == SteaneCode::syndromeOf(prev)
            && SteaneCode::parity(readout) == SteaneCode::parity(prev)) {
            patch(/*phase=*/true, base_a, readout);
            return;
        }
        have = true;
        prev = readout;
    }
}

inline void
AncillaPrepSimulator::correctedPrep(bool verified)
{
    // A detected error at either correction stage discards the
    // whole pipeline output and recycles the qubits (short-lived
    // ancillae are cheap to re-encode, Section 3). Bit correction
    // runs first, so Z junk copied onto A by block B is still
    // screened by the phase stage (Fig 2's ordering). Under
    // ApplyFix a verified pipeline must not trust a single
    // Z-syndrome extraction (the ancilla's correlated Z errors are
    // invisible to verification and would be patched onto A): the
    // phase patch requires two consecutive agreeing extractions
    // instead.
    const bool confirmed =
        verified && semantics_ == CorrectionSemantics::ApplyFix;
    for (;;) {
        frame_.clear();
        prepareBlock(blockA, verified);
        prepareBlock(blockB, verified);
        if (!correct(/*phase=*/false, blockA, blockB))
            continue;
        if (confirmed) {
            phaseCorrectConfirmed(blockA, blockC);
            return;
        }
        prepareBlock(blockC, verified);
        if (correct(/*phase=*/true, blockA, blockC))
            return;
    }
}

inline void
AncillaPrepSimulator::convertPi8()
{
    // 7-qubit cat state (Fig 5b): prep, H, CX chain.
    const int cat7 = blockB; // blocks B/C are free again
    for (int i = 0; i < 7; ++i)
        gatePrep(cat7 + i);
    gateH(cat7);
    for (int i = 0; i < 6; ++i)
        gateCx(cat7 + i, cat7 + i + 1);

    // Transversal controlled interaction between cat and the zero
    // block, plus the transversal pi/8 gates. T is not Clifford; we
    // conjugate the frame through it as through S (standard
    // approximation for rate estimation).
    for (int i = 0; i < 7; ++i) {
        chargeCxMovement(cat7 + i, blockA + i);
        frame_.applyCz(cat7 + i, blockA + i);
        inject2(FaultClass::Gate, cat7 + i, blockA + i);
    }
    for (int i = 0; i < 7; ++i) {
        frame_.applyS(blockA + i);
        inject1(FaultClass::Gate, blockA + i);
    }

    // Decode the cat block (reverse chain + H) and measure it.
    for (int i = 5; i >= 0; --i)
        gateCx(cat7 + i, cat7 + i + 1);
    gateH(cat7);
    for (int i = 0; i < 7; ++i)
        measureFlip(/*xBasis=*/false, cat7 + i);

    // Conditional transversal Z fix-up: applied for half of the
    // measurement outcomes; the intended gate leaves the frame
    // untouched but contributes gate errors.
    if (!schedule_.dryRun && rng_.bernoulli(0.5)) {
        for (int i = 0; i < 7; ++i)
            inject1(FaultClass::Gate, blockA + i);
    }
}

inline PrepOutcome
AncillaPrepSimulator::classify(int base) const
{
    PrepOutcome out;
    out.logicalX = SteaneCode::badCoset(static_cast<
        SteaneCode::Mask>(frame_.xBits(base, SteaneCode::numPhysical)));
    out.logicalZ = SteaneCode::badCoset(static_cast<
        SteaneCode::Mask>(frame_.zBits(base, SteaneCode::numPhysical)));
    return out;
}

inline PrepOutcome
AncillaPrepSimulator::runTrial(ZeroPrepStrategy strategy, bool pi8)
{
    for (FaultSchedule::Class *c : {&schedule_.gate, &schedule_.move}) {
        c->seen = 0;
        c->left = c->faults;
    }
    scheduled_ = schedule_.dryRun || schedule_.gate.sites != 0
        || schedule_.move.sites != 0;
    frame_.clear();
    const std::uint64_t fails_before = verifyFailures_;
    const bool verified =
        strategy == ZeroPrepStrategy::VerifyOnly ||
        strategy == ZeroPrepStrategy::VerifyAndCorrect;
    const bool corrected =
        strategy == ZeroPrepStrategy::CorrectOnly ||
        strategy == ZeroPrepStrategy::VerifyAndCorrect;

    if (corrected)
        correctedPrep(verified);
    else
        prepareBlock(blockA, verified);
    if (pi8)
        convertPi8();

    PrepOutcome out = classify(blockA);
    out.discarded = verifyFailures_ != fails_before;
    return out;
}

inline PrepOutcome
AncillaPrepSimulator::simulateOnce(ZeroPrepStrategy strategy)
{
    return runTrial(strategy, /*pi8=*/false);
}

inline PrepOutcome
AncillaPrepSimulator::simulatePi8Once()
{
    // The input is a high-fidelity encoded zero (Fig 4c).
    return runTrial(ZeroPrepStrategy::VerifyAndCorrect, /*pi8=*/true);
}

inline PrepEstimate
AncillaPrepSimulator::tally(ZeroPrepStrategy strategy, bool pi8,
                            std::uint64_t trials)
{
    PrepEstimate est;
    est.trials = trials;
    const std::uint64_t attempts_before = verifyAttempts_;
    const std::uint64_t failures_before = verifyFailures_;
    const std::uint64_t corr_attempts_before = correctionAttempts_;
    const std::uint64_t corr_failures_before = correctionFailures_;
    for (std::uint64_t i = 0; i < trials; ++i) {
        if (runTrial(strategy, pi8).failed())
            ++est.failures;
    }
    est.verifyTrials = verifyAttempts_ - attempts_before;
    est.discards = verifyFailures_ - failures_before;
    est.correctionTrials = correctionAttempts_ - corr_attempts_before;
    est.correctionDiscards =
        correctionFailures_ - corr_failures_before;
    return est;
}

inline PrepEstimate
AncillaPrepSimulator::estimateScalar(ZeroPrepStrategy strategy,
                                     std::uint64_t trials)
{
    return tally(strategy, /*pi8=*/false, trials);
}

inline PrepEstimate
AncillaPrepSimulator::estimateScalarPi8(std::uint64_t trials)
{
    PrepEstimate est =
        tally(ZeroPrepStrategy::VerifyAndCorrect, /*pi8=*/true, trials);
    est.correctionTrials = 0;
    est.correctionDiscards = 0;
    return est;
}

} // namespace qc::scalar

#endif // QC_TESTS_SCALAR_ANCILLA_SIM_HH
