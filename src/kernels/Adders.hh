/**
 * @file
 * Benchmark adder kernels (paper Section 3.1).
 *
 * - QRCA: the n-bit Quantum Ripple-Carry Adder in the
 *   Vedral-Barenco-Ekert style the paper assumes ("two n-bit data
 *   inputs plus n+1 ancillae", Section 3): registers a, b and an
 *   (n+1)-bit carry register; computes b <- a + b, with the carry-out
 *   in c[n] and c[0..n-1] restored to zero.
 *
 * - QCLA: an n-bit Quantum Carry-Lookahead Adder after
 *   Draper-Kutin-Rains-Svore [19]: Brent-Kung prefix tree over
 *   (generate, propagate) pairs in O(log n) Toffoli depth, sum
 *   produced out-of-place, all intermediate carries and
 *   propagate-products uncomputed.
 *
 * Both kernels are emitted over {PrepZ, CX, Toffoli}; lowering to
 * the fault-tolerant Clifford+T set is a separate pass (Lower.hh).
 * Because every gate is classical in the computational basis, both
 * are verified end-to-end by classical simulation in the test suite.
 */

#ifndef QC_KERNELS_ADDERS_HH
#define QC_KERNELS_ADDERS_HH

#include "circuit/Circuit.hh"

namespace qc {

/** Register map for a generated adder circuit. */
struct AdderLayout
{
    Qubit aBase;      ///< first qubit of input register a (n bits)
    Qubit bBase;      ///< first qubit of input/output register b
    Qubit sumBase;    ///< first qubit of the sum output register
    Qubit sumBits;    ///< number of sum output bits (n or n+1)
    Qubit carryOut;   ///< qubit holding the final carry
    Qubit numQubits;  ///< total qubits including ancillae
};

/** A generated adder kernel plus its register map. */
struct AdderKernel
{
    Circuit circuit;
    AdderLayout layout;
};

/**
 * Build the n-bit ripple-carry adder (VBE style).
 *
 * @param n            operand width in bits (>= 1, else
 *                     std::invalid_argument)
 * @param prep_ancilla emit PrepZ on the carry ancillae first
 */
AdderKernel makeQrca(int n, bool prep_ancilla = true);

/**
 * Build the n-bit carry-lookahead adder (Brent-Kung prefix tree).
 *
 * @param n            operand width in bits (>= 1, else
 *                     std::invalid_argument)
 * @param prep_ancilla emit PrepZ on all ancillae first
 */
AdderKernel makeQcla(int n, bool prep_ancilla = true);

} // namespace qc

#endif // QC_KERNELS_ADDERS_HH
