#include "kernels/Adders.hh"

#include <stdexcept>
#include <string>
#include <vector>

namespace qc {

namespace {

/** VBE majority/carry block: c1 ^= maj(c0, a, b); b ^= a. */
void
vbeCarry(Circuit &c, Qubit c0, Qubit a, Qubit b, Qubit c1)
{
    c.toffoli(a, b, c1);
    c.cx(a, b);
    c.toffoli(c0, b, c1);
}

/** Inverse of vbeCarry. */
void
vbeCarryInv(Circuit &c, Qubit c0, Qubit a, Qubit b, Qubit c1)
{
    c.toffoli(c0, b, c1);
    c.cx(a, b);
    c.toffoli(a, b, c1);
}

/** VBE sum block: b = a xor b xor c0. */
void
vbeSum(Circuit &c, Qubit c0, Qubit a, Qubit b)
{
    c.cx(a, b);
    c.cx(c0, b);
}

} // namespace

AdderKernel
makeQrca(int n, bool prep_ancilla)
{
    if (n < 1)
        throw std::invalid_argument(
            "makeQrca: operand width must be >= 1, got "
            + std::to_string(n));
    const auto un = static_cast<Qubit>(n);

    // Register map: a[0..n), b[0..n), c[0..n+1).
    const Qubit a0 = 0;
    const Qubit b0 = un;
    const Qubit c0 = 2 * un;
    const Qubit total = 3 * un + 1;

    Circuit circ(total, "qrca" + std::to_string(n));
    if (prep_ancilla) {
        for (Qubit i = 0; i <= un; ++i)
            circ.prepZ(c0 + i);
    }

    auto a = [&](int i) { return a0 + static_cast<Qubit>(i); };
    auto b = [&](int i) { return b0 + static_cast<Qubit>(i); };
    auto c = [&](int i) { return c0 + static_cast<Qubit>(i); };

    for (int i = 0; i < n; ++i)
        vbeCarry(circ, c(i), a(i), b(i), c(i + 1));
    circ.cx(a(n - 1), b(n - 1));
    vbeSum(circ, c(n - 1), a(n - 1), b(n - 1));
    for (int i = n - 2; i >= 0; --i) {
        vbeCarryInv(circ, c(i), a(i), b(i), c(i + 1));
        vbeSum(circ, c(i), a(i), b(i));
    }

    AdderLayout layout;
    layout.aBase = a0;
    layout.bBase = b0;
    layout.sumBase = b0;   // sum replaces b in place
    layout.sumBits = un;
    layout.carryOut = c(n);
    layout.numQubits = total;
    return {std::move(circ), layout};
}

namespace {

/**
 * Bookkeeping for the Brent-Kung propagate-product tree.
 *
 * blockProduct(t, j) names the qubit holding the AND of the
 * propagate bits over block [j*2^t, (j+1)*2^t). Level 0 products are
 * the propagate bits themselves (held in register b after the
 * CX(a, b) round); higher levels live in dedicated ancillae.
 */
class PropagateTree
{
  public:
    PropagateTree(int n, Qubit p_base, Qubit anc_base)
        : n_(n), pBase_(p_base)
    {
        Qubit next = anc_base;
        for (int t = 1; (1 << t) <= n / 2; ++t) {
            const int count = n >> t;
            levelBase_.push_back(next);
            levelSize_.push_back(count);
            next += static_cast<Qubit>(count);
        }
        end_ = next;
    }

    /** Number of tree levels above level 0. */
    int levels() const { return static_cast<int>(levelBase_.size()); }

    /** One past the last ancilla used by the tree. */
    Qubit end() const { return end_; }

    /** Qubit holding the level-t product for block j. */
    Qubit
    block(int t, int j) const
    {
        if (t == 0)
            return pBase_ + static_cast<Qubit>(j);
        return levelBase_[static_cast<std::size_t>(t - 1)]
            + static_cast<Qubit>(j);
    }

    /** Emit Toffolis computing every product level bottom-up. */
    void
    compute(Circuit &c) const
    {
        for (int t = 1; t <= levels(); ++t) {
            for (int j = 0; j < levelSize_[static_cast<std::size_t>(
                     t - 1)]; ++j) {
                c.toffoli(block(t - 1, 2 * j), block(t - 1, 2 * j + 1),
                          block(t, j));
            }
        }
    }

    /** Emit Toffolis erasing every product level top-down. */
    void
    uncompute(Circuit &c) const
    {
        for (int t = levels(); t >= 1; --t) {
            for (int j = levelSize_[static_cast<std::size_t>(t - 1)]
                     - 1; j >= 0; --j) {
                c.toffoli(block(t - 1, 2 * j), block(t - 1, 2 * j + 1),
                          block(t, j));
            }
        }
    }

  private:
    int n_;
    Qubit pBase_;
    Qubit end_;
    std::vector<Qubit> levelBase_;
    std::vector<int> levelSize_;
};

} // namespace

AdderKernel
makeQcla(int n, bool prep_ancilla)
{
    if (n < 1)
        throw std::invalid_argument(
            "makeQcla: operand width must be >= 1, got "
            + std::to_string(n));
    if (n == 1) {
        // Degenerate width: the ripple structure is already optimal
        // and the prefix tree is empty.
        AdderKernel k = makeQrca(1, prep_ancilla);
        return k;
    }
    const auto un = static_cast<Qubit>(n);

    // Register map: a[0..n), b[0..n), z[0..n+1) (z[i] = carry c_i),
    // s[0..n+1) (sum, with s[n] the carry-out), then the propagate
    // product tree ancillae.
    const Qubit a0 = 0;
    const Qubit b0 = un;
    const Qubit z0 = 2 * un;
    const Qubit s0 = 3 * un + 1;
    const Qubit tree0 = s0 + un + 1;

    // Probe the tree size first so the circuit can be sized up front.
    PropagateTree probe(n, b0, tree0);
    const Qubit total = probe.end();

    Circuit circ(total, "qcla" + std::to_string(n));
    auto a = [&](int i) { return a0 + static_cast<Qubit>(i); };
    auto b = [&](int i) { return b0 + static_cast<Qubit>(i); };
    auto z = [&](int i) { return z0 + static_cast<Qubit>(i); };
    auto s = [&](int i) { return s0 + static_cast<Qubit>(i); };

    if (prep_ancilla) {
        // Carries, sum output register, and tree ancillae all start
        // in |0>.
        for (Qubit q = z0; q < total; ++q)
            circ.prepZ(q);
    }

    const PropagateTree tree(n, b0, tree0);

    // Round 1: generates. z[i+1] ^= a_i & b_i.
    for (int i = 0; i < n; ++i)
        circ.toffoli(a(i), b(i), z(i + 1));
    // Round 2: propagates in place. b[i] = a_i xor b_i.
    for (int i = 0; i < n; ++i)
        circ.cx(a(i), b(i));

    // Propagate-product tree.
    tree.compute(circ);

    // Up-sweep: combine generate blocks pairwise. After level t,
    // z[(j+1)*2^t] holds the generate of block [j*2^t, (j+1)*2^t).
    int top = 0;
    while ((2 << top) <= n)
        ++top; // top = floor(log2 n), levels are t = 1..top.
    for (int t = 1; t <= top; ++t) {
        const int span = 1 << t;
        for (int j = 0; (j + 1) * span <= n; ++j) {
            const int hi = (j + 1) * span - 1;
            const int mid = hi - span / 2;
            circ.toffoli(tree.block(t - 1, 2 * j + 1), z(mid + 1),
                         z(hi + 1));
        }
    }

    // Down-sweep: fill in the remaining prefixes.
    for (int t = top; t >= 1; --t) {
        const int span = 1 << t;
        for (int j = 1; j * span + span / 2 - 1 < n; ++j) {
            const int idx = j * span + span / 2 - 1;
            circ.toffoli(tree.block(t - 1, 2 * j), z(j * span),
                         z(idx + 1));
        }
    }

    // Sum copy-out: s_i = p_i xor c_i; s_n = c_n.
    circ.cx(b(0), s(0)); // c_0 = 0
    for (int i = 1; i < n; ++i) {
        circ.cx(b(i), s(i));
        circ.cx(z(i), s(i));
    }
    circ.cx(z(n), s(n));

    // Uncompute carries and products (exact reverse of the forward
    // tree; every block is self-inverse).
    for (int t = 1; t <= top; ++t) {
        const int span = 1 << t;
        for (int j = 1; j * span + span / 2 - 1 < n; ++j) {
            const int idx = j * span + span / 2 - 1;
            circ.toffoli(tree.block(t - 1, 2 * j), z(j * span),
                         z(idx + 1));
        }
    }
    for (int t = top; t >= 1; --t) {
        const int span = 1 << t;
        for (int j = 0; (j + 1) * span <= n; ++j) {
            const int hi = (j + 1) * span - 1;
            const int mid = hi - span / 2;
            circ.toffoli(tree.block(t - 1, 2 * j + 1), z(mid + 1),
                         z(hi + 1));
        }
    }
    tree.uncompute(circ);
    for (int i = n - 1; i >= 0; --i)
        circ.cx(a(i), b(i));
    for (int i = n - 1; i >= 0; --i)
        circ.toffoli(a(i), b(i), z(i + 1));

    AdderLayout layout;
    layout.aBase = a0;
    layout.bBase = b0;
    layout.sumBase = s0;
    layout.sumBits = un + 1;
    layout.carryOut = s(n);
    layout.numQubits = total;
    return {std::move(circ), layout};
}

} // namespace qc
