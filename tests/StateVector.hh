/**
 * @file
 * Dense state-vector simulator for small circuits: the test suite's
 * unitary-level oracle.
 *
 * Supports every logical gate kind (including parameterized
 * rotations and Toffoli), so the tests can check unitary-level
 * equivalence of decompositions: Toffoli lowering, controlled-phase
 * decomposition, Fowler words, small QFTs against the exact DFT, and
 * the Steane encoder. Intended for <= ~16 qubits; not a performance
 * component.
 */

#ifndef QC_TESTS_STATE_VECTOR_HH
#define QC_TESTS_STATE_VECTOR_HH

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "circuit/Circuit.hh"
#include "common/Logging.hh"

namespace qc::sv {

/** Dense 2^n-amplitude simulator. */
class StateVector
{
  public:
    using Cplx = std::complex<double>;

    /** Initialize n qubits to |0...0>. */
    explicit StateVector(Qubit num_qubits) : StateVector(num_qubits, 0)
    {
    }

    /** Initialize to a computational basis state (LSB = qubit 0). */
    StateVector(Qubit num_qubits, std::uint64_t basis_state)
        : numQubits_(num_qubits)
    {
        if (num_qubits > 24)
            fatal("StateVector: ", num_qubits, " qubits is too large");
        amps_.assign(std::size_t{1} << num_qubits, 0.0);
        amps_[basis_state] = 1.0;
    }

    /** Number of qubits. */
    Qubit numQubits() const { return numQubits_; }

    /** Amplitude vector (size 2^n, index bit i = qubit i). */
    const std::vector<Cplx> &amplitudes() const { return amps_; }

    /** Apply one gate. Measure gates are rejected (panic). */
    void
    apply(const Gate &g)
    {
        using namespace std::complex_literals;
        const Qubit q = g.ops[0];
        switch (g.kind) {
          case GateKind::PrepZ:
            reset(q);
            return;
          case GateKind::PrepX: {
            reset(q);
            const Cplx h[2][2] = {{invSqrt2, invSqrt2},
                                  {invSqrt2, -invSqrt2}};
            apply1q(q, h);
            return;
          }
          case GateKind::H: {
            const Cplx h[2][2] = {{invSqrt2, invSqrt2},
                                  {invSqrt2, -invSqrt2}};
            apply1q(q, h);
            return;
          }
          case GateKind::X: {
            const Cplx x[2][2] = {{0.0, 1.0}, {1.0, 0.0}};
            apply1q(q, x);
            return;
          }
          case GateKind::Y: {
            const Cplx y[2][2] = {{0.0, -1.0i}, {1.0i, 0.0}};
            apply1q(q, y);
            return;
          }
          case GateKind::Z:
            applyPhase1q(q, -1.0);
            return;
          case GateKind::S:
            applyPhase1q(q, 1.0i);
            return;
          case GateKind::Sdg:
            applyPhase1q(q, -1.0i);
            return;
          case GateKind::T:
            applyPhase1q(q, std::polar(1.0, M_PI / 4.0));
            return;
          case GateKind::Tdg:
            applyPhase1q(q, std::polar(1.0, -M_PI / 4.0));
            return;
          case GateKind::RotZ: {
            const double mag =
                M_PI / std::ldexp(1.0, std::abs(g.param));
            applyPhase1q(q, std::polar(1.0, g.param >= 0 ? mag : -mag));
            return;
          }
          case GateKind::CX:
            applyCx(g.ops[0], g.ops[1]);
            return;
          case GateKind::CZ:
            applyControlledPhase(g.ops[0], g.ops[1], -1.0);
            return;
          case GateKind::CRotZ: {
            const double mag =
                M_PI / std::ldexp(1.0, std::abs(g.param));
            applyControlledPhase(
                g.ops[0], g.ops[1],
                std::polar(1.0, g.param >= 0 ? mag : -mag));
            return;
          }
          case GateKind::Toffoli:
            applyToffoli(g.ops[0], g.ops[1], g.ops[2]);
            return;
          default:
            panic("StateVector: unsupported gate ", gateName(g.kind));
        }
    }

    /** Apply every gate of a circuit in order. */
    void
    run(const Circuit &circuit)
    {
        if (circuit.numQubits() != numQubits_)
            panic("StateVector: circuit qubit count mismatch");
        for (const Gate &g : circuit.gates())
            apply(g);
    }

    /**
     * Fidelity-style overlap |<other|this>| in [0, 1]; 1 iff equal
     * up to global phase.
     */
    double
    overlap(const StateVector &other) const
    {
        if (other.amps_.size() != amps_.size())
            panic("StateVector: overlap size mismatch");
        Cplx inner = 0.0;
        for (std::size_t i = 0; i < amps_.size(); ++i)
            inner += std::conj(other.amps_[i]) * amps_[i];
        return std::abs(inner);
    }

    /** Probability that qubit q measures 1. */
    double
    probOne(Qubit q) const
    {
        const std::size_t mask = std::size_t{1} << q;
        double p = 0.0;
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            if (i & mask)
                p += std::norm(amps_[i]);
        }
        return p;
    }

  private:
    static constexpr double invSqrt2 = 0.70710678118654752440;

    void
    apply1q(Qubit q, const Cplx m[2][2])
    {
        const std::size_t stride = std::size_t{1} << q;
        const std::size_t size = amps_.size();
        for (std::size_t base = 0; base < size; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride; ++i) {
                const Cplx a0 = amps_[i];
                const Cplx a1 = amps_[i + stride];
                amps_[i] = m[0][0] * a0 + m[0][1] * a1;
                amps_[i + stride] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    void
    applyPhase1q(Qubit q, Cplx phase)
    {
        const std::size_t mask = std::size_t{1} << q;
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            if (i & mask)
                amps_[i] *= phase;
        }
    }

    void
    applyControlledPhase(Qubit a, Qubit b, Cplx phase)
    {
        const std::size_t mask =
            (std::size_t{1} << a) | (std::size_t{1} << b);
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            if ((i & mask) == mask)
                amps_[i] *= phase;
        }
    }

    void
    applyCx(Qubit control, Qubit target)
    {
        const std::size_t cmask = std::size_t{1} << control;
        const std::size_t tmask = std::size_t{1} << target;
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            if ((i & cmask) && !(i & tmask))
                std::swap(amps_[i], amps_[i | tmask]);
        }
    }

    void
    applyToffoli(Qubit a, Qubit b, Qubit target)
    {
        const std::size_t cmask =
            (std::size_t{1} << a) | (std::size_t{1} << b);
        const std::size_t tmask = std::size_t{1} << target;
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            if ((i & cmask) == cmask && !(i & tmask))
                std::swap(amps_[i], amps_[i | tmask]);
        }
    }

    void
    reset(Qubit q)
    {
        // Project onto |0> and renormalize; panics if the projection
        // is (numerically) zero, since PrepZ in our circuits is only
        // ever applied to qubits already in |0> or being legitimately
        // reset.
        const std::size_t mask = std::size_t{1} << q;
        double norm = 0.0;
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            if (i & mask)
                amps_[i] = 0.0;
            else
                norm += std::norm(amps_[i]);
        }
        if (norm < 1e-12)
            panic("StateVector: PrepZ on a qubit with no |0> support");
        const double scale = 1.0 / std::sqrt(norm);
        for (auto &a : amps_)
            a *= scale;
    }

    Qubit numQubits_;
    std::vector<Cplx> amps_;
};

} // namespace qc::sv

#endif // QC_TESTS_STATE_VECTOR_HH
