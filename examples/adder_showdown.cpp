/**
 * @file
 * Adder showdown: the paper's Section 5 story on one page, driven
 * entirely through the qc::Experiment facade.
 *
 * Runs the 32-bit ripple-carry and carry-lookahead adders under
 * three microarchitectures — QLA (dedicated per-qubit generators),
 * CQLA (compute cache) and the fully-multiplexed organization of
 * Qalypso — at matched ancilla-generation area, and reports
 * execution time, speedups, and where the time goes.
 *
 * Usage: adder_showdown [bits=32]
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

    int bits = 32;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("bits=", 0) == 0)
            bits = std::atoi(arg.c_str() + 5);
    }

    for (const char *workload : {"qrca", "qcla"}) {
        ExperimentConfig base = ExperimentConfig::paper(workload);
        base.params.bits = bits;
        base.schedule = ScheduleMode::Arch;
        base.cacheSlots = 24;
        Experiment experiment(base);

        ExperimentConfig ideal = base;
        ideal.schedule = ScheduleMode::SpeedOfData;
        const Result sod = experiment.run(ideal);

        std::cout << "\n== " << sod.workload << " (speed of data "
                  << fmtFixed(toMs(sod.makespan), 2) << " ms, needs "
                  << fmtFixed(sod.bandwidth.zeroPerMs(), 1)
                  << " zeros/ms) ==\n";

        // Reference: CQLA with 24 cache slots and one generator per
        // slot sets the matched area.
        ExperimentConfig cqla = base;
        cqla.arch = "cqla";
        const Result cqla_run = experiment.run(cqla);

        ExperimentConfig qla = base;
        qla.arch = "qla";
        const Result qla_run = experiment.run(qla);

        ExperimentConfig fma = base;
        fma.arch = "fma";
        fma.areaBudget = cqla_run.archRun.ancillaArea;
        const Result fma_run = experiment.run(fma);

        TextTable t;
        t.header({"Microarch", "Gen Area (MB)", "Exec (ms)",
                  "x speed-of-data", "vs Qalypso"});
        auto row = [&](const Result &r) {
            t.row({r.arch, fmtFixed(r.archRun.ancillaArea, 0),
                   fmtFixed(toMs(r.makespan), 2),
                   fmtFixed(r.slowdown(), 2),
                   fmtFixed(static_cast<double>(r.makespan)
                                / static_cast<double>(
                                    fma_run.makespan),
                            1)
                       + "x"});
        };
        row(qla_run);
        row(cqla_run);
        row(fma_run);
        t.print(std::cout);

        std::cout << "CQLA miss rate "
                  << fmtPct(cqla_run.archRun.missRate()) << ", "
                  << qla_run.archRun.teleports
                  << " teleports under QLA.\n";
    }

    std::cout << "\nThe fully-multiplexed organization wins at "
                 "matched area because shared factories are never "
                 "idle: ancillae flow to whichever data qubit needs "
                 "them next (paper Fig 14b/16).\n";
    return 0;
}
