/**
 * @file
 * Exact classical simulation of computational-basis circuits: the
 * test suite's arithmetic oracle.
 *
 * The adder kernels use only {PrepZ, X, CX, Toffoli}, all of which
 * permute computational basis states, so their arithmetic can be
 * verified exactly on classical bit vectors.
 */

#ifndef QC_TESTS_CLASSICAL_SIM_HH
#define QC_TESTS_CLASSICAL_SIM_HH

#include <cstdint>
#include <vector>

#include "circuit/Circuit.hh"
#include "common/Logging.hh"

namespace qc::classical {

/**
 * Run a computational-basis circuit on an initial bit assignment.
 *
 * @param circuit  circuit containing only PrepZ/X/CX/Toffoli/Measure
 * @param initial  initial bit per qubit (padded with zeros if short)
 * @return final bit per qubit
 *
 * Panics on any non-classical gate.
 */
inline std::vector<bool>
runClassical(const Circuit &circuit, std::vector<bool> initial)
{
    initial.resize(circuit.numQubits(), false);
    for (const Gate &g : circuit.gates()) {
        switch (g.kind) {
          case GateKind::PrepZ:
            initial[g.ops[0]] = false;
            break;
          case GateKind::X:
            initial[g.ops[0]] = !initial[g.ops[0]];
            break;
          case GateKind::CX:
            if (initial[g.ops[0]])
                initial[g.ops[1]] = !initial[g.ops[1]];
            break;
          case GateKind::Toffoli:
            if (initial[g.ops[0]] && initial[g.ops[1]])
                initial[g.ops[2]] = !initial[g.ops[2]];
            break;
          case GateKind::Measure:
            // Computational-basis measurement of a classical state
            // is the identity on the bit vector.
            break;
          default:
            panic("runClassical: non-classical gate ",
                  gateName(g.kind));
        }
    }
    return initial;
}

/** Pack bits [base, base+count) of a state into an integer, LSB first. */
inline std::uint64_t
packBits(const std::vector<bool> &state, Qubit base, Qubit count)
{
    std::uint64_t value = 0;
    for (Qubit i = 0; i < count; ++i) {
        if (state[base + i])
            value |= std::uint64_t{1} << i;
    }
    return value;
}

/** Unpack an integer into bits [base, base+count) of a state. */
inline void
unpackBits(std::vector<bool> &state, Qubit base, Qubit count,
           std::uint64_t value)
{
    for (Qubit i = 0; i < count; ++i)
        state[base + i] = (value >> i) & 1;
}

} // namespace qc::classical

#endif // QC_TESTS_CLASSICAL_SIM_HH
