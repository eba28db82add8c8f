/**
 * @file
 * The n-bit Quantum Fourier Transform benchmark (paper Sections 2.5
 * and 3.1).
 *
 * The generator emits the textbook QFT: a Hadamard on each qubit
 * followed by controlled phase rotations CRotZ(d) (angle pi/2^d)
 * from each lower-order qubit, optionally followed by the final
 * qubit-reversal swaps (realized as triples of CX). Rotations finer
 * than maxK are omitted at generation time (the standard approximate
 * QFT); the lowering pass may elide further and expands the
 * remaining rotations into fault-tolerant H/T words (Section 2.5).
 */

#ifndef QC_KERNELS_QFT_HH
#define QC_KERNELS_QFT_HH

#include "circuit/Circuit.hh"

namespace qc {

/** Options for QFT generation. */
struct QftOptions
{
    /**
     * Keep controlled rotations with exponent d <= maxK only; a
     * non-positive value keeps every rotation (exact QFT).
     */
    int maxK = 0;

    /** Emit the final qubit-reversal swap network (3 CX each). */
    bool withSwaps = true;
};

/**
 * Build the n-qubit QFT over qubits [0, n); n < 1 throws
 * std::invalid_argument.
 */
Circuit makeQft(int n, const QftOptions &options = {});

} // namespace qc

#endif // QC_KERNELS_QFT_HH
