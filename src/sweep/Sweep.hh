/**
 * @file
 * Single facade header for the sweep subsystem. Consumers — the
 * qcarch CLI, the engine bench, tests — include this one header and
 * get:
 *
 *  - qc::SweepSpec            declarative sweep descriptions
 *                             (cartesian + zipped axes, grid
 *                             unions, JSON round-trip)
 *  - qc::SweepRunner /        pluggable point executors
 *    qc::SweepRunnerRegistry  ("experiment", "mc-prep", "paper")
 *  - qc::runSweep             the parallel executor: points on
 *                             qc::parallelFor, config-hash
 *                             memoization, deterministic aggregation
 *
 * See docs/SWEEPS.md for the spec format and CLI usage, and
 * src/sweep/README.md for the module tour.
 */

#ifndef QC_SWEEP_SWEEP_HH
#define QC_SWEEP_SWEEP_HH

#include "sweep/SweepEngine.hh"
#include "sweep/SweepPlan.hh"
#include "sweep/SweepRunner.hh"
#include "sweep/SweepSpec.hh"

#endif // QC_SWEEP_SWEEP_HH
