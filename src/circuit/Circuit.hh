/**
 * @file
 * Logical circuit container and fluent builder interface.
 *
 * A Circuit is an ordered list of gates over a fixed set of logical
 * qubits. Order encodes program order; actual parallelism is
 * recovered by DataflowGraph from qubit dependencies.
 */

#ifndef QC_CIRCUIT_CIRCUIT_HH
#define QC_CIRCUIT_CIRCUIT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/Gate.hh"

namespace qc {

/** Per-kind gate counts plus derived summary figures. */
struct GateCensus
{
    /** Count per GateKind. */
    std::array<std::uint64_t, static_cast<std::size_t>(
        GateKind::NumKinds)> byKind{};

    /** Total gates. */
    std::uint64_t total = 0;

    /** Count for one kind. */
    std::uint64_t
    of(GateKind kind) const
    {
        return byKind[static_cast<std::size_t>(kind)];
    }

    /** T + Tdg count (the non-transversal pi/8 applications). */
    std::uint64_t nonTransversal1q() const
    {
        return of(GateKind::T) + of(GateKind::Tdg);
    }
};

/**
 * An ordered logical quantum circuit.
 */
class Circuit
{
  public:
    /** Create a circuit over n logical qubits. */
    explicit Circuit(Qubit num_qubits, std::string name = "circuit");

    /** Number of logical qubits (including data ancillae). */
    Qubit numQubits() const { return numQubits_; }

    /** Circuit name (used in reports). */
    const std::string &name() const { return name_; }

    /** All gates in program order. */
    const std::vector<Gate> &gates() const { return gates_; }

    /** Gate count. */
    std::size_t size() const { return gates_.size(); }

    /** Append a fully-formed gate (operands validated). */
    void append(const Gate &gate);

    /**
     * Grow the qubit set (returns the index of the first new qubit).
     * Used by decomposition passes that introduce ancillae.
     */
    Qubit addQubits(Qubit count);

    /** @name Fluent builders (validated, return *this). */
    /** @{ */
    Circuit &prepZ(Qubit q);
    Circuit &h(Qubit q);
    Circuit &x(Qubit q);
    Circuit &y(Qubit q);
    Circuit &z(Qubit q);
    Circuit &s(Qubit q);
    Circuit &t(Qubit q);
    Circuit &tdg(Qubit q);
    Circuit &cx(Qubit control, Qubit target);
    Circuit &cz(Qubit a, Qubit b);
    Circuit &rotZ(Qubit q, int k);
    Circuit &crotZ(Qubit control, Qubit target, int k);
    Circuit &toffoli(Qubit a, Qubit b, Qubit target);
    Circuit &measure(Qubit q);
    /** @} */

    /** Tally gates by kind. */
    GateCensus census() const;

  private:
    void checkQubit(Qubit q) const;

    Qubit numQubits_;
    std::string name_;
    std::vector<Gate> gates_;
};

} // namespace qc

#endif // QC_CIRCUIT_CIRCUIT_HH
