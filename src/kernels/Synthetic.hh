/**
 * @file
 * Synthetic workload generators for scaling and stress studies,
 * complementing the paper's three kernels: circuits with precisely
 * controllable depth, width and ancilla-demand mix whose analytic
 * properties (gate counts, critical path) are trivial to derive, so
 * API and scheduler tests can assert exact values.
 */

#ifndef QC_KERNELS_SYNTHETIC_HH
#define QC_KERNELS_SYNTHETIC_HH

#include "circuit/Circuit.hh"

namespace qc {

/**
 * A fully serial single-qubit chain of `length` alternating H and T
 * gates: one gate per dependence level, so the speed-of-data
 * critical path is exactly `length` gates long and the pi/8 demand
 * is length/2. The worst case for any ancilla-sharing scheme (zero
 * exploitable parallelism). length < 1 throws std::invalid_argument.
 */
Circuit makeChain(int length);

/**
 * A dense brickwork ladder on `width` qubits with `layers` layers:
 * each layer applies H to every qubit, then CX between alternating
 * neighbor pairs (brick pattern). Parallelism equals the width at
 * every level — the best case for shared ancilla factories, with
 * gate count width * layers + ~(width/2) * layers. width < 2 or
 * layers < 1 throws std::invalid_argument.
 */
Circuit makeLadder(int width, int layers);

} // namespace qc

#endif // QC_KERNELS_SYNTHETIC_HH
