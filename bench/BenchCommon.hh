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
#include <utility>
#include <vector>

#include "api/Qc.hh"
#include "common/Table.hh"
#include "factory/ZeroFactory.hh"
#include "layout/Builders.hh"
#include "sweep/Sweep.hh"

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

/** Whether a name=value CLI argument is present at all. */
inline bool
hasArg(int argc, char **argv, const std::string &name)
{
    const std::string prefix = name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

/**
 * Shared main for the sweep-backed figure benches: load the shipped
 * spec (specs/<specName>, overridable with spec=PATH), apply any
 * numeric CLI overrides into the spec base (e.g. trials=, bits=),
 * run it on the parallel sweep engine (threads=N, 0 = all cores)
 * and write the aggregated JSON to out=PATH.
 *
 * The bench binaries and `qcarch sweep specs/<specName>` are the
 * same computation by construction: one spec, one engine.
 */
inline int
runSweepBench(
    int argc, char **argv, const std::string &specName,
    const std::string &defaultOut,
    const std::vector<std::pair<std::string, std::string>>
        &numericOverrides = {})
{
    const std::string specPath = argString(
        argc, argv, "spec", std::string(QC_SPEC_DIR "/") + specName);
    const std::string out = argString(argc, argv, "out", defaultOut);

    SweepSpec spec;
    try {
        spec = SweepSpec::load(specPath);
        for (const auto &[arg, path] : numericOverrides) {
            if (!hasArg(argc, argv, arg))
                continue;
            const Json value(argValue(argc, argv, arg, 0));
            // Grid bases merge over the spec base, so a CLI
            // override must land in both to win everywhere.
            setJsonPath(spec.base, path, value);
            for (SweepGrid &grid : spec.grids)
                setJsonPath(grid.base, path, value);
        }

        SweepOptions options;
        options.threads = static_cast<int>(
            argValue(argc, argv, "threads", 0));
        options.progress = [](const SweepProgress &p) {
            std::cerr << "\r[" << p.done << "/" << p.total << "]"
                      << (p.done == p.total ? "\n" : "")
                      << std::flush;
        };

        const SweepReport report = runSweep(spec, options);
        report.doc.saveFile(out);
        std::cout << "wrote " << report.points << " sweep points ("
                  << report.executed << " executed, "
                  << report.cacheHits << " cached) to " << out
                  << " in " << fmtFixed(report.wallSeconds, 1)
                  << " s\n";
        return report.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}

} // namespace qc::bench

#endif // QC_BENCH_BENCH_COMMON_HH
