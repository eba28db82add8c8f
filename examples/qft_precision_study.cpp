/**
 * @file
 * QFT precision study: the Section 2.5 trade-off made concrete,
 * swept through the qc::Experiment facade.
 *
 * Small controlled rotations in the QFT must be either elided
 * (approximate QFT) or expanded into fault-tolerant {H, T} words of
 * bounded precision. Both choices trade circuit fidelity against
 * pi/8-ancilla bandwidth and runtime. This example sweeps the
 * rotation cutoff and the word-search depth for a mid-sized QFT —
 * each sweep point is one ExperimentConfig — and reports gate
 * counts, the accumulated approximation budget, and the resulting
 * speed-of-data bandwidth demands.
 *
 * Usage: qft_precision_study [bits=16]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "Table.hh"
#include "api/Qc.hh"

int
main(int argc, char **argv)
{
    using namespace qc;

    int bits = 16;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("bits=", 0) == 0)
            bits = std::atoi(arg.c_str() + 5);
    }

    std::cout << "== " << bits
              << "-bit QFT: rotation cutoff sweep (word depth 6) ==\n";
    TextTable t;
    t.header({"maxRotK", "gates", "T gates", "elided",
              "elided angle (rad)", "word err sum", "runtime (ms)",
              "zero BW", "pi/8 BW"});
    for (int cutoff : {2, 4, 6, 8, 10}) {
        ExperimentConfig config = ExperimentConfig::paper("qft");
        config.params.bits = bits;
        config.params.lowering.maxRotK = cutoff;
        Experiment experiment(config);
        const Result r = experiment.run();
        const LoweringStats &stats =
            experiment.workload().lowered.stats;
        t.row({fmtInt(cutoff),
               fmtInt(static_cast<long long>(r.gates)),
               fmtInt(static_cast<long long>(r.pi8Gates)),
               fmtInt(static_cast<long long>(stats.elided)),
               fmtFixed(stats.elidedAngleSum, 4),
               fmtFixed(stats.approxErrorSum, 3),
               fmtFixed(toMs(r.makespan), 2),
               fmtFixed(r.bandwidth.zeroPerMs(), 1),
               fmtFixed(r.bandwidth.pi8PerMs(), 1)});
    }
    t.print(std::cout);

    std::cout << "\n== Word-search depth sweep (cutoff 8) ==\n";
    TextTable d;
    d.header({"syllables", "gates", "T gates", "word err sum",
              "zero BW", "pi/8 BW"});
    for (int depth : {3, 4, 5, 6}) {
        ExperimentConfig config = ExperimentConfig::paper("qft");
        config.params.bits = bits;
        config.synth.maxSyllables = depth;
        Experiment experiment(config);
        const Result r = experiment.run();
        d.row({fmtInt(depth),
               fmtInt(static_cast<long long>(r.gates)),
               fmtInt(static_cast<long long>(r.pi8Gates)),
               fmtFixed(
                   experiment.workload().lowered.stats.approxErrorSum,
                   3),
               fmtFixed(r.bandwidth.zeroPerMs(), 1),
               fmtFixed(r.bandwidth.pi8PerMs(), 1)});
    }
    d.print(std::cout);

    std::cout << "\nCoarser cutoffs shed gates (and ancilla "
                 "bandwidth) at the price of a larger skipped-angle "
                 "budget; deeper searches buy fidelity per word "
                 "with offline compute, not runtime.\n";
    return 0;
}
