/**
 * @file
 * Ablation (Section 5.3, Figure 16): Qalypso tile sizing — the
 * paper's stated open problem. Data regions should be "as large as
 * possible" so data qubits reach each other ballistically instead
 * of by teleportation, but ballistic hops grow with region size and
 * ancilla multiplexing happens only within a tile.
 *
 * Uses the full tiled model (runQalypso): per-tile factory
 * pools sized from a fixed per-tile area budget, ballistic
 * intra-tile movement, teleportation between tiles.
 */

#include <iostream>

#include "BenchCommon.hh"
#include "arch/SpeedOfData.hh"
#include "circuit/Dataflow.hh"
#include "common/Table.hh"

int
main()
{
    using namespace qc;

    const EncodedOpModel model(IonTrapParams::paper());

    for (const Workload &b : bench::paperBenchmarks()) {
        const DataflowGraph graph(b.lowered.circuit);
        const BandwidthSummary bw =
            bandwidthAtSpeedOfData(graph, model);
        const int nq = static_cast<int>(b.lowered.circuit.numQubits());

        bench::section("Tile-size ablation: " + b.name + " ("
                       + std::to_string(nq)
                       + " logical qubits; speed-of-data "
                       + fmtFixed(toMs(bw.runtime), 2) + " ms)");
        TextTable t;
        t.header({"tile size", "tiles", "factory area", "exec (ms)",
                  "x optimal", "inter-tile 2q", "teleports"});

        for (int tile : {8, 16, 32, 64, 128, 256}) {
            if (tile > 2 * nq)
                break;
            QalypsoConfig config;
            config.tileSize = tile;
            // Keep the *total* factory budget constant across the
            // sweep so only the organization varies.
            const Area total_budget = 4000;
            const int tiles = (nq + tile - 1) / tile;
            config.factoryAreaPerTile = total_budget / tiles;
            const QalypsoRunResult r =
                runQalypso(graph, model, config);
            t.row({fmtInt(tile), fmtInt(r.tiles),
                   fmtFixed(r.totalFactoryArea, 0),
                   fmtFixed(toMs(r.makespan), 2),
                   fmtFixed(static_cast<double>(r.makespan)
                                / static_cast<double>(bw.runtime),
                            2),
                   fmtPct(r.interTileFraction()),
                   fmtInt(static_cast<long long>(r.teleports))});
        }
        t.print(std::cout);
    }
    std::cout << "\nSmall tiles teleport constantly and fragment the "
                 "ancilla supply; one huge region pays long "
                 "ballistic hops. The sweet spot sits where most "
                 "interacting qubits share a tile — the trade-off "
                 "the paper defers to future work.\n";
    return 0;
}
