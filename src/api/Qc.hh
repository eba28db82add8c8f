/**
 * @file
 * Single facade header for the qalypso experiment API. Downstream
 * consumers — benches, examples, notebooks, services — include this
 * one header and get:
 *
 *  - qc::WorkloadRegistry  the fixed table of named, parameterized
 *                          benchmark circuits ("qrca", "qcla",
 *                          "qft", "chain", "ladder"; kernels/)
 *  - qc::ArchRegistry      the fixed table of the five
 *                          microarchitecture models ("qla", "gqla",
 *                          "cqla", "gcqla", "fma"), plus
 *                          qc::throttledRun and qc::runQalypso —
 *                          all policies of the one event-driven
 *                          dataflow executor (arch/)
 *  - qc::ExperimentConfig  one JSON-round-trippable description of
 *                          a run (workload, code level 1 or 2,
 *                          error rates, schedule mode, factory
 *                          budget, optional Monte Carlo factory
 *                          calibration)
 *  - qc::Experiment /      build once, run schedule variants, get a
 *    qc::runExperiment     structured qc::Result (latency split,
 *                          demand profile, factory utilization,
 *                          KLOPS) that serializes to JSON
 *  - qc::Json              the minimal JSON value used throughout
 *
 * A new workload is one row of the table in kernels/Workloads.cc; a
 * new model is an ArchExecution plus one table row in
 * arch/Microarch.cc.
 *
 * Units everywhere: qc::Time is integer nanoseconds, areas are
 * macroblocks, bandwidths are items per millisecond, error rates
 * are probabilities per operation.
 *
 * The paper's headline artifacts map to one-liners; see
 * src/api/README.md for the table/figure-to-call map,
 * docs/ARCHITECTURE.md for the module tour, and docs/PAPER_MAP.md
 * for the artifact-to-ledger map (level-2 analogs included).
 */

#ifndef QC_API_QC_HH
#define QC_API_QC_HH

#include "api/Experiment.hh"
#include "api/Json.hh"
#include "arch/Microarch.hh"
#include "kernels/Workloads.hh"

#endif // QC_API_QC_HH
