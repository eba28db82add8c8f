/**
 * @file
 * Bit-parallel batched Pauli-frame tracking: the trial-major
 * transposition of the scalar reference engine's PauliFrame
 * (tests/ScalarAncillaSim.hh).
 *
 * Where PauliFrame stores one trial as an X and a Z mask over 64
 * qubits, BatchPauliFrameT stores, per qubit, `wordsPerQubit` 64-bit
 * words whose bit t is the X (resp. Z) error of Monte Carlo trial t.
 * Every Clifford conjugation then advances 64*wordsPerQubit
 * independent trials with a handful of XOR/AND word operations and
 * no branches, which is the standard batched-frame layout from the
 * stabilizer-simulation literature.
 *
 * The class is templated on a simd::*Ops word-width policy (see
 * common/simd/SimdOps.hh): the pure-bitwise masked Clifford loops
 * are blocked by Ops::kLanes words per step (256/512-bit vectors
 * under the matching target flags) with a 1-word tail, while every
 * RNG-consuming loop stays ordered per 64-bit word — which is what
 * makes results bit-identical across every width.
 * `BatchPauliFrame` aliases the 1-lane reference instantiation.
 *
 * All mutators take an active-trial mask (one word array of the
 * same width): bits outside the mask are left untouched, which is
 * what lets divergent per-trial control flow (verification retries,
 * correction-stage discards) run in lockstep — finished trials are
 * simply dropped from the mask while stragglers loop again.
 *
 * Error injection draws from a RareBernoulliStream (one uniform
 * draw per *hit*, O(1) skip over hit-free injection sites). The
 * stream advances over the words that hold the caller's first
 * `lanes` trials regardless of the mask — masked-out hits are
 * discarded, they draw no Pauli kind — so the RNG stream is a pure
 * function of the injection sequence.
 */

#ifndef QC_ERROR_BATCH_PAULI_FRAME_HH
#define QC_ERROR_BATCH_PAULI_FRAME_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/Rng.hh"
#include "common/simd/SimdOps.hh"

namespace qc {

/** The bits of word w that hold trials [from, to). */
inline std::uint64_t
laneRange(int w, int from, int to)
{
    const auto below = [w](int lane) {
        const int n = std::clamp(lane - 64 * w, 0, 64);
        return n == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << n) - 1;
    };
    return below(to) & ~below(from);
}

/** X/Z error bit-planes over numQubits x (64 * wordsPerQubit) trials. */
template <class Ops = simd::WordOps>
class BatchPauliFrameT
{
  public:
    using Word = std::uint64_t;

    BatchPauliFrameT(int num_qubits, int words_per_qubit)
        : numQubits_(num_qubits), words_(words_per_qubit),
          xw_(static_cast<std::size_t>(num_qubits * words_per_qubit)),
          zw_(static_cast<std::size_t>(num_qubits * words_per_qubit))
    {
        assert(num_qubits > 0 && words_per_qubit > 0);
    }

    int numQubits() const { return numQubits_; }

    /** Words per qubit bit-plane (batch width / 64). */
    int wordsPerQubit() const { return words_; }

    /** Concurrent Monte Carlo trials per batch. */
    int trials() const { return 64 * words_; }

    /** X bit-plane of qubit q (wordsPerQubit() words). */
    Word *x(int q) { return &xw_[plane(q)]; }
    const Word *x(int q) const { return &xw_[plane(q)]; }

    /** Z bit-plane of qubit q. */
    Word *z(int q) { return &zw_[plane(q)]; }
    const Word *z(int q) const { return &zw_[plane(q)]; }

    /** Clear every error bit of every trial. */
    void
    clear()
    {
        std::fill(xw_.begin(), xw_.end(), Word{0});
        std::fill(zw_.begin(), zw_.end(), Word{0});
    }

    /** Forget qubit q's errors in the masked trials (fresh prep). */
    void
    clearQubit(int q, const Word *m)
    {
        Word *xq = x(q);
        Word *zq = z(q);
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            const auto keep = ~O::load(m + w);
            O::store(xq + w, O::load(xq + w) & keep);
            O::store(zq + w, O::load(zq + w) & keep);
        });
    }

    /** Toggle an X error on q in the masked trials. */
    void
    flipX(int q, const Word *m)
    {
        Word *xq = x(q);
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            O::store(xq + w, O::load(xq + w) ^ O::load(m + w));
        });
    }

    /** Toggle a Z error on q in the masked trials. */
    void
    flipZ(int q, const Word *m)
    {
        Word *zq = z(q);
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            O::store(zq + w, O::load(zq + w) ^ O::load(m + w));
        });
    }

    /** @name Branch-free masked Clifford conjugation. */
    /** @{ */

    /** Hadamard: swap X and Z in the masked trials (XOR swap). */
    void
    applyH(int q, const Word *m)
    {
        Word *xq = x(q);
        Word *zq = z(q);
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            const auto xv = O::load(xq + w);
            const auto zv = O::load(zq + w);
            const auto diff = (xv ^ zv) & O::load(m + w);
            O::store(xq + w, xv ^ diff);
            O::store(zq + w, zv ^ diff);
        });
    }

    /** Phase gate: X -> Y (adds Z where X is set). */
    void
    applyS(int q, const Word *m)
    {
        const Word *xq = x(q);
        Word *zq = z(q);
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            O::store(zq + w,
                     O::load(zq + w) ^ (O::load(xq + w) & O::load(m + w)));
        });
    }

    /** CX: X on control spreads to target; Z on target to control. */
    void
    applyCx(int control, int target, const Word *m)
    {
        const Word *xc = x(control);
        Word *xt = x(target);
        Word *zc = z(control);
        const Word *zt = z(target);
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            const auto mm = O::load(m + w);
            O::store(xt + w, O::load(xt + w) ^ (O::load(xc + w) & mm));
            O::store(zc + w, O::load(zc + w) ^ (O::load(zt + w) & mm));
        });
    }

    /** CZ: X on either side deposits Z on the other. */
    void
    applyCz(int a, int b, const Word *m)
    {
        const Word *xa = x(a);
        const Word *xb = x(b);
        Word *za = z(a);
        Word *zb = z(b);
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            const auto mm = O::load(m + w);
            O::store(zb + w, O::load(zb + w) ^ (O::load(xa + w) & mm));
            O::store(za + w, O::load(za + w) ^ (O::load(xb + w) & mm));
        });
    }

    /** @} */

    /** @name Batched error injection. */
    /** @{ */

    /**
     * Uniform non-identity Pauli with probability p on qubit q, per
     * masked trial among the first `lanes`: the stream advances over
     * the words holding those trials unconditionally (one uniform
     * draw per hit bit, none otherwise); hits outside the mask or
     * past `lanes` are dropped without drawing a Pauli kind.
     */
    void
    inject1q(Rng &rng, RareBernoulliStream &p, int q, const Word *m,
             int lanes)
    {
        Word *xq = x(q);
        Word *zq = z(q);
        const int words = (lanes + 63) / 64;
        p.window(rng, words, [&](int w, Word raw) {
            pauli1q(rng, raw & m[w] & laneRange(w, 0, lanes), xq[w],
                    zq[w]);
        });
    }

    /** Uniform non-identity two-qubit Pauli (see inject1q). */
    void
    inject2q(Rng &rng, RareBernoulliStream &p, int a, int b,
             const Word *m, int lanes)
    {
        Word *xa = x(a);
        Word *za = z(a);
        Word *xb = x(b);
        Word *zb = z(b);
        const int words = (lanes + 63) / 64;
        p.window(rng, words, [&](int w, Word raw) {
            pauli2q(rng, raw & m[w] & laneRange(w, 0, lanes), xa[w],
                    za[w], xb[w], zb[w]);
        });
    }

    /**
     * A uniform non-identity Pauli on q in each trial of [from, to)
     * (faults placed, not drawn): one kind draw per trial, in trial
     * order, visiting only their words.
     */
    void
    fault1q(Rng &rng, int q, int from, int to)
    {
        Word *xq = x(q);
        Word *zq = z(q);
        for (int w = from / 64; w < (to + 63) / 64; ++w)
            pauli1q(rng, laneRange(w, from, to), xq[w], zq[w]);
    }

    /** Two-qubit counterpart of fault1q. */
    void
    fault2q(Rng &rng, int a, int b, int from, int to)
    {
        Word *xa = x(a);
        Word *za = z(a);
        Word *xb = x(b);
        Word *zb = z(b);
        for (int w = from / 64; w < (to + 63) / 64; ++w)
            pauli2q(rng, laneRange(w, from, to), xa[w], za[w], xb[w],
                    zb[w]);
    }

    /** @} */

  private:
    /** A uniform draw of X, Z or Y per set bit of `hit`. */
    static void
    pauli1q(Rng &rng, Word hit, Word &xq, Word &zq)
    {
        while (hit) {
            const int t = __builtin_ctzll(hit);
            hit &= hit - 1;
            const Word pauli = rng.below(3) + 1;
            xq ^= (pauli & 1) << t;
            zq ^= (pauli >> 1) << t;
        }
    }

    /** A uniform draw of the 15 non-identity two-qubit Paulis per
     *  set bit of `hit`. */
    static void
    pauli2q(Rng &rng, Word hit, Word &xa, Word &za, Word &xb,
            Word &zb)
    {
        while (hit) {
            const int t = __builtin_ctzll(hit);
            hit &= hit - 1;
            const Word pauli = rng.below(15) + 1;
            xa ^= (pauli & 1) << t;
            za ^= (pauli >> 1 & 1) << t;
            xb ^= (pauli >> 2 & 1) << t;
            zb ^= (pauli >> 3) << t;
        }
    }

    std::size_t
    plane(int q) const
    {
        assert(q >= 0 && q < numQubits_);
        return static_cast<std::size_t>(q)
            * static_cast<std::size_t>(words_);
    }

    int numQubits_;
    int words_;
    std::vector<Word> xw_;
    std::vector<Word> zw_;
};

/** The 1-lane reference instantiation (the original 64-bit path). */
using BatchPauliFrame = BatchPauliFrameT<simd::WordOps>;

} // namespace qc

#endif // QC_ERROR_BATCH_PAULI_FRAME_HH
