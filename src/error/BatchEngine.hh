/**
 * @file
 * The batched Monte Carlo worker, templated on SIMD width.
 *
 * BatchWorkerT<Ops> is the engine behind BatchAncillaSim: a frame
 * wide enough for one batch plus the masked circuit routines and
 * popcount tallies, mirroring AncillaPrepSimulator step for step.
 * The Ops policy (common/simd/SimdOps.hh) picks how many 64-bit
 * words the pure-bitwise frame loops advance per step; every
 * RNG-consuming routine is ordered per 64-bit word of the *bit
 * stream* (RareBernoulliStream), so a batch's results are a pure
 * function of its seed — bit-identical across every width.
 *
 * Each width is instantiated in its own translation unit
 * (src/error/simd/BatchEngine*.cc) so the 256/512-bit ones can be
 * compiled with -mavx2/-mavx512f without imposing those ISAs on the
 * rest of the binary; makeBatchWorker() dispatches on a resolved
 * simd::Width (see common/simd/SimdDispatch.hh for the resolution
 * rules and the QC_FORCE_WIDTH override).
 */

#ifndef QC_ERROR_BATCH_ENGINE_HH
#define QC_ERROR_BATCH_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "codes/SteaneCode.hh"
#include "common/Rng.hh"
#include "common/simd/SimdDispatch.hh"
#include "error/AncillaSim.hh"
#include "error/BatchPauliFrame.hh"

namespace qc {

/**
 * Width-erased interface of one batch worker. Tallies accumulate
 * across runBatch calls; BatchAncillaSim::run folds them into the
 * shared board once per worker thread.
 */
class BatchWorkerBase
{
  public:
    using Word = std::uint64_t;

    virtual ~BatchWorkerBase() = default;

    /** Build the batch's active mask for its first k trials. */
    virtual const Word *activeMask(int k) = 0;

    /**
     * Run one batch of trials under the active mask: a zero prep,
     * then the pi/8 conversion (Fig 5b) if `pi8`.
     */
    virtual void runBatch(Rng rng, ZeroPrepStrategy strategy,
                          bool pi8, const Word *active) = 0;

    std::uint64_t failures = 0;
    std::uint64_t verifyAttempts = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t correctionAttempts = 0;
    std::uint64_t correctionFailures = 0;
};

/**
 * Construct a worker for the given (already resolved, non-Auto)
 * width. Defined in src/error/simd/BatchEngineFactory.cc; each case
 * forwards to the factory exported by that width's translation unit.
 */
std::unique_ptr<BatchWorkerBase>
makeBatchWorker(simd::Width width, const ErrorParams &errors,
                const MovementModel &movement,
                CorrectionSemantics semantics, int words);

namespace batch_detail {

inline std::uint64_t
popcount(const std::uint64_t *m, int words)
{
    std::uint64_t n = 0;
    for (int w = 0; w < words; ++w)
        n += static_cast<std::uint64_t>(__builtin_popcountll(m[w]));
    return n;
}

inline bool
any(const std::uint64_t *m, int words)
{
    for (int w = 0; w < words; ++w) {
        if (m[w])
            return true;
    }
    return false;
}

/** Hamming syndrome bits and parity of a block's readout. */
template <class O>
struct Readout
{
    typename O::V s0, s1, s2, parity;
};

/**
 * Bit-sliced readout of the seven bit-planes `plane + q * stride`
 * (q = 0..6) at word w: bit t of s0/s1/s2 is bit 0/1/2 of trial
 * t's syndrome (SteaneCode::syndromeOf: qubit q contributes q + 1),
 * bit t of parity its readout parity.
 */
template <class O>
inline Readout<O>
readout(const std::uint64_t *plane, std::size_t stride, int w)
{
    Readout<O> r{O::zero(), O::zero(), O::zero(), O::zero()};
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        const auto e =
            O::load(plane + static_cast<std::size_t>(q) * stride + w);
        r.parity = r.parity ^ e;
        const unsigned col = static_cast<unsigned>(q) + 1;
        if (col & 1u)
            r.s0 = r.s0 ^ e;
        if (col & 2u)
            r.s1 = r.s1 ^ e;
        if (col & 4u)
            r.s2 = r.s2 ^ e;
    }
    return r;
}

// Block base offsets within the batched frame (same layout as the
// scalar engine: output block, two correction ancillae, cat qubits).
constexpr int blockA = 0;
constexpr int blockB = 7;
constexpr int blockC = 14;
constexpr int catBase = 21;
constexpr int frameQubits = 28;

} // namespace batch_detail

/**
 * One shard of the batched Monte Carlo at a fixed SIMD width. The
 * control flow mirrors AncillaPrepSimulator step for step; every
 * routine takes the active-trial mask of the trials it advances.
 */
template <class Ops>
class BatchWorkerT final : public BatchWorkerBase
{
  public:
    BatchWorkerT(const ErrorParams &errors,
                 const MovementModel &movement,
                 CorrectionSemantics semantics, int words)
        : movement_(movement), semantics_(semantics), words_(words),
          pGate_(errors.pGate), pMove_(errors.pMove),
          frame_(batch_detail::frameQubits, words), meas_(7 * wv()),
          active_(wv()), pending_(wv()), survivors_(wv()),
          done_(wv()), ok_(wv()), prepMask_(wv()), flip_(wv()),
          measTmp_(wv()), eq_(wv()), confirm_(wv()),
          have_(wv()), agree_(wv()), prevS0_(wv()), prevS1_(wv()),
          prevS2_(wv()), prevP_(wv()), coin_(wv())
    {
    }

    const Word *
    activeMask(int k) override
    {
        for (int w = 0; w < words_; ++w) {
            const int lo = 64 * w;
            if (k >= lo + 64)
                active_[w] = ~Word{0};
            else if (k <= lo)
                active_[w] = 0;
            else
                active_[w] = (Word{1} << (k - lo)) - 1;
        }
        return active_.data();
    }

    void
    runBatch(Rng rng, ZeroPrepStrategy strategy, bool pi8,
             const Word *active) override
    {
        rng_ = rng;
        pGate_.reset(rng_);
        pMove_.reset(rng_);
        frame_.clear();
        const bool verified =
            strategy == ZeroPrepStrategy::VerifyOnly ||
            strategy == ZeroPrepStrategy::VerifyAndCorrect;
        const bool corrected =
            strategy == ZeroPrepStrategy::CorrectOnly ||
            strategy == ZeroPrepStrategy::VerifyAndCorrect;

        if (corrected)
            drainCorrectedPrep(active, verified);
        else
            prepareBlock(batch_detail::blockA, verified, active);
        if (pi8)
            convertPi8(active);
        classifyTally(active);
    }

  private:
    std::size_t wv() const { return static_cast<std::size_t>(words_); }

    /** The Fig 5b conversion of the corrected zero on block A. */
    void
    convertPi8(const Word *active)
    {
        // 7-qubit cat state on the freed block B.
        const int cat7 = batch_detail::blockB;
        for (int i = 0; i < 7; ++i)
            gatePrep(cat7 + i, active);
        gateH(cat7, active);
        for (int i = 0; i < 6; ++i)
            gateCx(cat7 + i, cat7 + i + 1, active);

        // Transversal cat/zero interaction plus transversal pi/8
        // (conjugated through the frame as S, as in the scalar
        // engine).
        for (int i = 0; i < 7; ++i) {
            chargeCxMovement(cat7 + i, batch_detail::blockA + i,
                             active);
            frame_.applyCz(cat7 + i, batch_detail::blockA + i,
                           active);
            frame_.inject2q(rng_, pGate_, cat7 + i,
                            batch_detail::blockA + i, active);
        }
        for (int i = 0; i < 7; ++i) {
            frame_.applyS(batch_detail::blockA + i, active);
            frame_.inject1q(rng_, pGate_, batch_detail::blockA + i,
                            active);
        }

        // Decode the cat block and measure it out.
        for (int i = 5; i >= 0; --i)
            gateCx(cat7 + i, cat7 + i + 1, active);
        gateH(cat7, active);
        for (int i = 0; i < 7; ++i)
            measureFlip(/*xBasis=*/false, cat7 + i, active,
                        measTmp_.data());

        // Conditional transversal Z fix-up on half the outcomes: the
        // intended gate leaves the frame untouched but its physical
        // ops still inject errors. One fair coin per trial.
        for (int w = 0; w < words_; ++w)
            coin_[w] = rng_() & active[w];
        for (int i = 0; i < 7; ++i)
            frame_.inject1q(rng_, pGate_, batch_detail::blockA + i,
                            coin_.data());
    }

    /**
     * Drain the corrected-preparation pipeline for every trial in
     * `active`: prepare blocks A and B, bit-correct, prepare C,
     * phase-correct. Trials whose correction stage detects an error
     * recycle the whole pipeline; finished trials drop out of the
     * mask and their frame bits stay frozen while the stragglers
     * loop (every op is masked), so they are classified at the end.
     */
    void
    drainCorrectedPrep(const Word *active, bool verified)
    {
        using batch_detail::any;
        // Under ApplyFix a verified pipeline must not trust a
        // single Z-syndrome extraction (the ancilla's correlated Z
        // errors are invisible to verification and would be patched
        // onto A): the phase patch requires two consecutive
        // agreeing extractions instead (phaseCorrectConfirmed).
        const bool confirmed = verified
            && semantics_ == CorrectionSemantics::ApplyFix;
        std::copy(active, active + words_, pending_.begin());
        while (any(pending_.data(), words_)) {
            prepareBlock(batch_detail::blockA, verified,
                         pending_.data());
            prepareBlock(batch_detail::blockB, verified,
                         pending_.data());
            correctStage(false, batch_detail::blockA,
                         batch_detail::blockB, pending_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(survivors_.data() + w,
                         O::load(pending_.data() + w)
                             & O::load(ok_.data() + w));
            });
            if (!any(survivors_.data(), words_)) {
                std::fill(done_.begin(), done_.end(), Word{0});
            } else if (confirmed) {
                phaseCorrectConfirmed(batch_detail::blockA,
                                      batch_detail::blockC,
                                      survivors_.data());
                std::copy(survivors_.begin(), survivors_.end(),
                          done_.begin());
            } else {
                prepareBlock(batch_detail::blockC, verified,
                             survivors_.data());
                correctStage(true, batch_detail::blockA,
                             batch_detail::blockC,
                             survivors_.data());
                simd::spans<Ops>(words_, [&](auto ops, int w) {
                    using O = decltype(ops);
                    O::store(done_.data() + w,
                             O::load(survivors_.data() + w)
                                 & O::load(ok_.data() + w));
                });
            }
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(pending_.data() + w,
                         O::load(pending_.data() + w)
                             & ~O::load(done_.data() + w));
            });
        }
    }

    void
    chargeCxMovement(int a, int b, const Word *m)
    {
        for (int i = 0; i < movement_.movesPerCx; ++i)
            frame_.inject1q(rng_, pMove_, (i & 1) ? b : a, m);
        for (int i = 0; i < movement_.turnsPerCx; ++i)
            frame_.inject1q(rng_, pMove_, (i & 1) ? b : a, m);
    }

    void
    chargeMeasMovement(int q, const Word *m)
    {
        for (int i = 0; i < movement_.movesPerMeas; ++i)
            frame_.inject1q(rng_, pMove_, q, m);
    }

    void
    gateH(int q, const Word *m)
    {
        for (int i = 0; i < movement_.movesPer1q; ++i)
            frame_.inject1q(rng_, pMove_, q, m);
        frame_.applyH(q, m);
        frame_.inject1q(rng_, pGate_, q, m);
    }

    void
    gatePrep(int q, const Word *m)
    {
        frame_.clearQubit(q, m);
        frame_.inject1q(rng_, pGate_, q, m);
    }

    void
    gateCx(int control, int target, const Word *m)
    {
        chargeCxMovement(control, target, m);
        frame_.applyCx(control, target, m);
        frame_.inject2q(rng_, pGate_, control, target, m);
    }

    /**
     * Per-trial recorded-outcome flips of measuring q in the X basis
     * (`xBasis`: phase errors flip the outcome) or the Z basis (bit
     * errors do). The flip stream advances over all words
     * regardless of the mask (width-invariant RNG); flips outside
     * the mask are discarded.
     */
    void
    measureFlip(bool xBasis, int q, const Word *m, Word *out)
    {
        chargeMeasMovement(q, m);
        const Word *plane = xBasis ? frame_.z(q) : frame_.x(q);
        std::fill(out, out + words_, Word{0});
        pGate_.window(rng_, words_,
                      [&](int w, Word f) { out[w] = f; });
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            O::store(out + w, (O::load(plane + w) ^ O::load(out + w))
                                  & O::load(m + w));
        });
        frame_.clearQubit(q, m);
    }

    void
    basicEncode(int base, const Word *m)
    {
        for (int q = 0; q < SteaneCode::numPhysical; ++q)
            gatePrep(base + q, m);
        for (int seed : SteaneCode::encoderSeeds)
            gateH(base + seed, m);
        for (const auto &cx : SteaneCode::encoderCxs)
            gateCx(base + cx.control, base + cx.target, m);
    }

    /**
     * Verify the block against a 3-qubit cat; on return flip_ holds
     * the rejected trials (subset of m). Tallies attempts/failures.
     */
    void
    verifyBlock(int base, const Word *m)
    {
        using batch_detail::catBase;
        verifyAttempts += batch_detail::popcount(m, words_);

        for (int i = 0; i < 3; ++i)
            gatePrep(catBase + i, m);
        gateH(catBase, m);
        gateCx(catBase, catBase + 1, m);
        gateCx(catBase + 1, catBase + 2, m);

        int cat = catBase;
        for (int q = 0; q < SteaneCode::numPhysical; ++q) {
            if (SteaneCode::verifyMask & (SteaneCode::Mask{1} << q)) {
                chargeCxMovement(base + q, cat, m);
                frame_.applyCz(base + q, cat, m);
                frame_.inject2q(rng_, pGate_, base + q, cat, m);
                ++cat;
            }
        }

        std::fill(flip_.begin(), flip_.end(), Word{0});
        for (int i = 0; i < 3; ++i) {
            measureFlip(/*xBasis=*/true, catBase + i, m,
                        measTmp_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(flip_.data() + w,
                         O::load(flip_.data() + w)
                             ^ O::load(measTmp_.data() + w));
            });
        }
        verifyFailures += batch_detail::popcount(flip_.data(), words_);
    }

    /**
     * Encode (and, if verified, verify with masked retries) the
     * block for every trial in m. On return all m trials hold an
     * accepted block.
     */
    void
    prepareBlock(int base, bool verified, const Word *m)
    {
        std::copy(m, m + words_, prepMask_.begin());
        for (;;) {
            basicEncode(base, prepMask_.data());
            if (!verified)
                return;
            verifyBlock(base, prepMask_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(prepMask_.data() + w,
                         O::load(prepMask_.data() + w)
                             & O::load(flip_.data() + w));
            });
            if (!batch_detail::any(prepMask_.data(), words_))
                return;
        }
    }

    /**
     * One syndrome extraction on block A for the trials in m: the
     * transversal CX with the ancilla block (data->ancilla for the
     * bit stage, ancilla->data for the phase stage) and the
     * ancilla's seven readouts (Z basis, resp. X basis) into meas_.
     * Tallies a correction attempt per trial.
     */
    void
    extract(bool phase, int base_a, int base_anc, const Word *m)
    {
        correctionAttempts += batch_detail::popcount(m, words_);
        for (int q = 0; q < SteaneCode::numPhysical; ++q) {
            if (phase)
                gateCx(base_anc + q, base_a + q, m);
            else
                gateCx(base_a + q, base_anc + q, m);
        }
        for (int q = 0; q < SteaneCode::numPhysical; ++q)
            measureFlip(/*xBasis=*/phase, base_anc + q, m,
                        &meas_[static_cast<std::size_t>(q) * wv()]);
    }

    /**
     * One correction stage (bit stage when phase == false, phase
     * stage otherwise) on block A using a fresh ancilla block. On
     * return ok_ holds the trials that keep their block (under
     * DiscardOnSyndrome, trials with a non-trivial syndrome or odd
     * readout parity are dropped; under ApplyFix every trial passes
     * and the decoded patch is applied per trial).
     */
    void
    correctStage(bool phase, int base_a, int base_anc, const Word *m)
    {
        extract(phase, base_a, base_anc, m);
        if (semantics_ == CorrectionSemantics::ApplyFix) {
            applyFixScatter(phase, base_a, m);
            std::copy(m, m + words_, ok_.begin());
            return;
        }
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            const auto r = batch_detail::readout<O>(meas_.data(), wv(), w);
            const auto bad =
                (r.s0 | r.s1 | r.s2 | r.parity) & O::load(m + w);
            O::store(measTmp_.data() + w, bad);
            O::store(ok_.data() + w, O::load(m + w) & ~bad);
        });
        correctionFailures +=
            batch_detail::popcount(measTmp_.data(), words_);
    }

    /**
     * Parity-aware patch scatter from the current meas_ readout
     * (SteaneCode::fixFor): over the 15 non-trivial (syndrome,
     * parity) readout classes, trials in a class get the decoded
     * minimal-weight patch (one gate error per patched qubit) on
     * block A — X patches for the bit stage, Z for the phase
     * stage. The patch matches the readout's coset, so correlated
     * even-parity patterns are not "completed" into logical
     * operators (the first-order failure path of a syndrome-only
     * single-qubit decode).
     */
    void
    applyFixScatter(bool phase, int base_a, const Word *m)
    {
        for (int odd = 1; odd >= 0; --odd) {
            for (unsigned s = 0; s < 8; ++s) {
                const SteaneCode::Mask fix =
                    SteaneCode::fixFor(s, odd != 0);
                if (!fix)
                    continue;
                // eq_ := trials in m whose readout class is (s, odd).
                simd::spans<Ops>(words_, [&](auto ops, int w) {
                    using O = decltype(ops);
                    const auto r =
                        batch_detail::readout<O>(meas_.data(), wv(), w);
                    const auto ones = ~O::zero();
                    const auto zero = O::zero();
                    const auto mismatch =
                        (r.s0 ^ ((s & 1u) ? ones : zero))
                        | (r.s1 ^ ((s & 2u) ? ones : zero))
                        | (r.s2 ^ ((s & 4u) ? ones : zero))
                        | (r.parity ^ (odd ? ones : zero));
                    O::store(eq_.data() + w,
                             ~mismatch & O::load(m + w));
                });
                if (!batch_detail::any(eq_.data(), words_))
                    continue;
                for (int q = 0; q < SteaneCode::numPhysical; ++q) {
                    if (!(fix & (SteaneCode::Mask{1} << q)))
                        continue;
                    if (phase)
                        frame_.flipZ(base_a + q, eq_.data());
                    else
                        frame_.flipX(base_a + q, eq_.data());
                    frame_.inject1q(rng_, pGate_, base_a + q,
                                    eq_.data());
                }
            }
        }
    }

    /**
     * ApplyFix phase correction for verified pipelines: Shor-style
     * repeated syndrome extraction, mirroring the scalar engine's
     * phaseCorrectConfirmed. Each round preps a fresh verified
     * ancilla for the still-unconfirmed trials, extracts (syndrome,
     * parity), and patches the trials whose extraction agrees with
     * their previous one; the rest carry the new readout into the
     * next round. Each extraction tallies a correction attempt.
     */
    void
    phaseCorrectConfirmed(int base_a, int base_c, const Word *m)
    {
        using batch_detail::any;
        std::copy(m, m + words_, confirm_.begin());
        std::fill(have_.begin(), have_.end(), Word{0});
        while (any(confirm_.data(), words_)) {
            prepareBlock(base_c, /*verified=*/true,
                         confirm_.data());
            extract(/*phase=*/true, base_a, base_c, confirm_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                const auto r =
                    batch_detail::readout<O>(meas_.data(), wv(), w);
                const auto confirm = O::load(confirm_.data() + w);
                O::store(
                    agree_.data() + w,
                    confirm & O::load(have_.data() + w)
                        & ~((r.s0 ^ O::load(prevS0_.data() + w))
                            | (r.s1 ^ O::load(prevS1_.data() + w))
                            | (r.s2 ^ O::load(prevS2_.data() + w))
                            | (r.parity
                               ^ O::load(prevP_.data() + w))));
                O::store(prevS0_.data() + w, r.s0);
                O::store(prevS1_.data() + w, r.s1);
                O::store(prevS2_.data() + w, r.s2);
                O::store(prevP_.data() + w, r.parity);
                O::store(have_.data() + w,
                         O::load(have_.data() + w) | confirm);
            });
            if (any(agree_.data(), words_)) {
                applyFixScatter(/*phase=*/true, base_a,
                                agree_.data());
                simd::spans<Ops>(words_, [&](auto ops, int w) {
                    using O = decltype(ops);
                    O::store(confirm_.data() + w,
                             O::load(confirm_.data() + w)
                                 & ~O::load(agree_.data() + w));
                });
            }
        }
    }

    /**
     * Word-parallel residual classification of block A. For the
     * Steane code with perfect decoding, the residual is logical iff
     * parity(error) XOR (syndrome != 0): the correction flips one
     * qubit exactly when the syndrome is non-trivial, and a
     * trivial-syndrome residual is a stabilizer (even parity) or a
     * logical representative (odd parity). A unit test checks this
     * identity against SteaneCode::badCoset for all 128 patterns.
     */
    void
    classifyTally(const Word *m)
    {
        if (!batch_detail::any(m, words_))
            return;
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            auto fail = O::zero();
            for (const Word *plane :
                 {frame_.x(batch_detail::blockA),
                  frame_.z(batch_detail::blockA)}) {
                const auto r = batch_detail::readout<O>(plane, wv(), w);
                fail = fail | (r.parity ^ (r.s0 | r.s1 | r.s2));
            }
            O::store(measTmp_.data() + w, fail & O::load(m + w));
        });
        failures += batch_detail::popcount(measTmp_.data(), words_);
    }

    MovementModel movement_;
    CorrectionSemantics semantics_;
    int words_;
    Rng rng_;
    RareBernoulliStream pGate_;
    RareBernoulliStream pMove_;
    BatchPauliFrameT<Ops> frame_;

    std::vector<Word> meas_; ///< 7 readout-flip planes (7 * words_)
    std::vector<Word> active_;
    std::vector<Word> pending_;
    std::vector<Word> survivors_;
    std::vector<Word> done_;
    std::vector<Word> ok_;
    std::vector<Word> prepMask_;
    std::vector<Word> flip_;
    std::vector<Word> measTmp_;
    std::vector<Word> eq_;
    // Confirmed phase-correction state (syndrome bits + parity of
    // the previous extraction, per trial).
    std::vector<Word> confirm_; ///< trials awaiting confirmation
    std::vector<Word> have_;    ///< trials with a previous readout
    std::vector<Word> agree_;   ///< trials whose extractions agree
    std::vector<Word> prevS0_;
    std::vector<Word> prevS1_;
    std::vector<Word> prevS2_;
    std::vector<Word> prevP_;
    std::vector<Word> coin_;
};

} // namespace qc

#endif // QC_ERROR_BATCH_ENGINE_HH
