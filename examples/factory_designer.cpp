/**
 * @file
 * Factory design-space explorer: how the pipelined zero and pi/8
 * factory designs respond to technology changes.
 *
 * The paper keeps all analyses symbolic in the physical latencies
 * (Tables 1/4) precisely so they survive technology evolution; this
 * example exercises that: it re-derives the bandwidth-matched
 * designs of Tables 5-8 for a range of hypothetical ion-trap
 * operating points (faster measurement, slower movement, ...) and
 * shows how unit counts, area and throughput shift.
 *
 * Usage: factory_designer
 */

#include <iostream>

#include "Table.hh"
#include "factory/Pi8Factory.hh"
#include "factory/ZeroFactory.hh"

namespace {

using namespace qc;

struct TechPoint
{
    const char *name;
    IonTrapParams params;
};

void
report(const TechPoint &point)
{
    const ZeroFactory zero(point.params);
    const Pi8Factory pi8(point.params);

    std::cout << "\n== " << point.name << " ==\n";
    TextTable t;
    t.header({"Stage", "Count", "Area"});
    for (const StageDesign &s : zero.stages())
        t.row({s.unit.name, fmtInt(s.count),
               fmtFixed(s.totalArea(), 0)});
    t.print(std::cout);
    std::cout << "zero factory: " << zero.totalArea()
              << " MB total, " << fmtFixed(zero.throughput(), 1)
              << " encoded zeros/ms, latency "
              << fmtFixed(toUs(zero.latency()), 0) << " us\n";
    std::cout << "pi/8 factory: " << pi8.totalArea()
              << " MB total, " << fmtFixed(pi8.throughput(), 1)
              << " pi/8 ancillae/ms\n";
    std::cout << "bandwidth density: "
              << fmtFixed(zero.throughput() / zero.totalArea() * 100,
                          2)
              << " zeros/ms per 100 MB\n";
}

} // namespace

int
main()
{
    TechPoint baseline{"Paper baseline (Tables 1 & 4)",
                       IonTrapParams::paper()};

    TechPoint fast_meas{"5x faster measurement (tmeas = 10 us)",
                        IonTrapParams::paper()};
    fast_meas.params.tmeas = usec(10);

    TechPoint slow_moves{"10x slower movement (tmove = 10 us, "
                         "tturn = 100 us)",
                         IonTrapParams::paper()};
    slow_moves.params.tmove = usec(10);
    slow_moves.params.tturn = usec(100);

    TechPoint fast_2q{"2x faster two-qubit gates (t2q = 5 us)",
                      IonTrapParams::paper()};
    fast_2q.params.t2q = usec(5);

    for (const TechPoint &point :
         {baseline, fast_meas, slow_moves, fast_2q}) {
        report(point);
    }

    std::cout << "\nNote how the design re-balances itself: faster "
                 "two-qubit gates speed up the CX network and drag "
                 "the whole prep farm larger to keep it fed, while "
                 "faster measurement shortens verification and "
                 "correction without moving the CX bottleneck. The "
                 "symbolic formulation makes every such what-if a "
                 "one-line change.\n";
    return 0;
}
