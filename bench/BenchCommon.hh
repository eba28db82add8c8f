/**
 * @file
 * Shared helpers for the table/figure bench binaries: canonical
 * 32-bit paper benchmark construction and paper-vs-measured table
 * emission.
 */

#ifndef QC_BENCH_BENCH_COMMON_HH
#define QC_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/Qc.hh"
#include "common/Table.hh"
#include "factory/ZeroFactory.hh"
#include "layout/Builders.hh"

namespace qc::bench {

/**
 * The pipelined zero factory sized with the verification acceptance
 * measured by the batched Pauli-frame Monte Carlo engine (movement
 * charges calibrated from the routed Fig 11 layout), announced on
 * stdout. Shared by the figure benches so they price demand against
 * one consistent factory design.
 */
inline ZeroFactory
calibratedZeroFactory()
{
    const MovementModel movement = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    const ZeroFactory factory = ZeroFactory::calibrated(
        IonTrapParams::paper(), ErrorParams::paper(), movement);
    std::cout << "zero factory: measured acceptance "
              << fmtPct(factory.acceptRate(), 2) << ", throughput "
              << fmtFixed(factory.throughput(), 1) << " /ms\n";
    return factory;
}

/**
 * Build the paper's three 32-bit benchmarks through the workload
 * registry, with the shared paper-parity synthesis options
 * (ExperimentConfig::paper).
 */
inline std::vector<Workload>
paperBenchmarks()
{
    static FowlerSynth synth(
        ExperimentConfig::paper("qrca").synth);
    std::vector<Workload> out;
    WorkloadParams params;
    params.bits = 32;
    for (const char *name : {"qrca", "qcla", "qft"}) {
        out.push_back(WorkloadRegistry::instance().build(
            name, synth, params));
    }
    return out;
}

/** Parse an integer CLI argument of the form name=value. */
inline std::uint64_t
argValue(int argc, char **argv, const std::string &name,
         std::uint64_t fallback)
{
    const std::string prefix = name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return std::strtoull(arg.c_str() + prefix.size(),
                                 nullptr, 10);
    }
    return fallback;
}

/** Parse a string CLI argument of the form name=value. */
inline std::string
argString(int argc, char **argv, const std::string &name,
          const std::string &fallback)
{
    const std::string prefix = name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
    }
    return fallback;
}

/** Print a titled section separator. */
inline void
section(const std::string &title)
{
    std::cout << "\n== " << title << " ==\n";
}

} // namespace qc::bench

#endif // QC_BENCH_BENCH_COMMON_HH
