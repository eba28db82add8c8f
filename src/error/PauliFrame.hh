/**
 * @file
 * Pauli-frame error tracking for stabilizer-circuit Monte Carlo
 * (paper Section 2.2).
 *
 * Errors are tracked as X/Z bit masks over up to 64 physical
 * qubits. Clifford gates conjugate the frame (two-qubit gates
 * propagate bit and phase flips between qubits, exactly the effect
 * the paper's methodology calls out); error injection draws
 * uniformly over the non-identity Paulis on the op's support.
 */

#ifndef QC_ERROR_PAULI_FRAME_HH
#define QC_ERROR_PAULI_FRAME_HH

#include <cassert>
#include <cstdint>

#include "common/Rng.hh"

namespace qc {

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
     * fault schedule (error/AncillaSim.hh) own the fire/no-fire
     * decision while the kind draw stays identical to inject1q.
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

} // namespace qc

#endif // QC_ERROR_PAULI_FRAME_HH
