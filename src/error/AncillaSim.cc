#include "error/AncillaSim.hh"

#include "codes/SteaneCode.hh"

namespace qc {

namespace {

// Block base offsets within the Pauli frame.
constexpr int blockA = 0;   // output block
constexpr int blockB = 7;   // bit-correction ancilla
constexpr int blockC = 14;  // phase-correction ancilla
constexpr int catBase = 21; // cat qubits (3 or 7)

} // namespace

const char *
zeroPrepStrategyName(ZeroPrepStrategy strategy)
{
    switch (strategy) {
      case ZeroPrepStrategy::Basic:
        return "Basic 0 (no conditioning)";
      case ZeroPrepStrategy::VerifyOnly:
        return "Verify Only (Fig 4a)";
      case ZeroPrepStrategy::CorrectOnly:
        return "Correct Only (Fig 4b)";
      case ZeroPrepStrategy::VerifyAndCorrect:
        return "Verify and Correct (Fig 4c)";
    }
    return "?";
}

double
PrepEstimate::errorRate() const
{
    return trials ? static_cast<double>(failures)
                      / static_cast<double>(trials)
                  : 0.0;
}

Interval
PrepEstimate::errorInterval() const
{
    return wilsonInterval(failures, trials ? trials : 1);
}

double
PrepEstimate::discardRate() const
{
    return verifyTrials ? static_cast<double>(discards)
                            / static_cast<double>(verifyTrials)
                        : 0.0;
}

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
bool
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

void
AncillaPrepSimulator::inject1(FaultClass cls, int q)
{
    if (siteFault(cls))
        frame_.applyUniform1(rng_, q);
}

void
AncillaPrepSimulator::inject2(FaultClass cls, int a, int b)
{
    if (siteFault(cls))
        frame_.applyUniform2(rng_, a, b);
}

void
AncillaPrepSimulator::chargeCxMovement(int a, int b)
{
    for (int i = 0; i < movement_.movesPerCx; ++i)
        inject1(FaultClass::Move, (i & 1) ? b : a);
    for (int i = 0; i < movement_.turnsPerCx; ++i)
        inject1(FaultClass::Move, (i & 1) ? b : a);
}

void
AncillaPrepSimulator::chargeMeasMovement(int q)
{
    for (int i = 0; i < movement_.movesPerMeas; ++i)
        inject1(FaultClass::Move, q);
}

void
AncillaPrepSimulator::gateH(int q)
{
    for (int i = 0; i < movement_.movesPer1q; ++i)
        inject1(FaultClass::Move, q);
    frame_.applyH(q);
    inject1(FaultClass::Gate, q);
}

void
AncillaPrepSimulator::gatePrep(int q)
{
    frame_.clearRange(q, 1);
    inject1(FaultClass::Gate, q);
}

void
AncillaPrepSimulator::gateCx(int control, int target)
{
    chargeCxMovement(control, target);
    frame_.applyCx(control, target);
    inject2(FaultClass::Gate, control, target);
}

bool
AncillaPrepSimulator::measureFlip(bool xBasis, int q)
{
    chargeMeasMovement(q);
    const bool error = xBasis ? frame_.hasZ(q) : frame_.hasX(q);
    const bool flip = error ^ siteFault(FaultClass::Gate);
    frame_.clearRange(q, 1); // qubit leaves the computation
    return flip;
}

void
AncillaPrepSimulator::basicEncode(int base)
{
    for (int q = 0; q < SteaneCode::numPhysical; ++q)
        gatePrep(base + q);
    for (int seed : SteaneCode::encoderSeeds)
        gateH(base + seed);
    for (const auto &cx : SteaneCode::encoderCxs)
        gateCx(base + cx.control, base + cx.target);
}

bool
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

void
AncillaPrepSimulator::prepareBlock(int base, bool verified)
{
    do {
        frame_.clearRange(base, SteaneCode::numPhysical);
        basicEncode(base);
    } while (verified && !verifyBlock(base));
}

SteaneCode::Mask
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

void
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

bool
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

void
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

void
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

void
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

PrepOutcome
AncillaPrepSimulator::classify(int base) const
{
    PrepOutcome out;
    out.logicalX = SteaneCode::badCoset(static_cast<
        SteaneCode::Mask>(frame_.xBits(base, SteaneCode::numPhysical)));
    out.logicalZ = SteaneCode::badCoset(static_cast<
        SteaneCode::Mask>(frame_.zBits(base, SteaneCode::numPhysical)));
    return out;
}

PrepOutcome
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

PrepOutcome
AncillaPrepSimulator::simulateOnce(ZeroPrepStrategy strategy)
{
    return runTrial(strategy, /*pi8=*/false);
}

PrepOutcome
AncillaPrepSimulator::simulatePi8Once()
{
    // The input is a high-fidelity encoded zero (Fig 4c).
    return runTrial(ZeroPrepStrategy::VerifyAndCorrect, /*pi8=*/true);
}

PrepEstimate
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

PrepEstimate
AncillaPrepSimulator::estimateScalar(ZeroPrepStrategy strategy,
                                     std::uint64_t trials)
{
    return tally(strategy, /*pi8=*/false, trials);
}

PrepEstimate
AncillaPrepSimulator::estimateScalarPi8(std::uint64_t trials)
{
    PrepEstimate est =
        tally(ZeroPrepStrategy::VerifyAndCorrect, /*pi8=*/true, trials);
    est.correctionTrials = 0;
    est.correctionDiscards = 0;
    return est;
}

} // namespace qc
