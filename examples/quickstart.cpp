/**
 * @file
 * Quickstart: the core qalypso workflow through the qc::Experiment
 * facade.
 *
 * One ExperimentConfig names a workload from the registry, the
 * schedule mode, and the technology point; one runExperiment() call
 * generates the kernel, lowers it to the fault-tolerant [[7,1,3]]
 * gate set, runs the speed-of-data analysis (paper Section 3),
 * sizes pipelined ancilla factories to the demanded bandwidth
 * (Section 4), and returns a structured qc::Result — which also
 * serializes to JSON for scripting.
 *
 * Build and run:
 *   cmake -B build -S . -DQC_EXAMPLES=ON && cmake --build build -j
 *   ./build/quickstart
 */

#include <iostream>

#include "api/Qc.hh"

int
main()
{
    using namespace qc;

    // The registry knows every workload by name.
    std::cout << "registered workloads:";
    for (const std::string &name :
         WorkloadRegistry::instance().names())
        std::cout << " " << name;
    std::cout << "\nregistered architectures:";
    for (const std::string &key : ArchRegistry::instance().keys())
        std::cout << " " << key;
    std::cout << "\n\n";

    // One config describes the whole experiment: a 32-bit
    // ripple-carry adder at the paper's technology point, scheduled
    // at the speed of data.
    ExperimentConfig config = ExperimentConfig::paper("qrca");
    const Result result = runExperiment(config);

    std::cout << result.workload << ": " << result.qubits
              << " logical qubits, " << result.gates
              << " fault-tolerant gates (" << result.pi8Gates
              << " pi/8 gates)\n";
    std::cout << "speed-of-data runtime: "
              << toMs(result.bandwidth.runtime) << " ms\n"
              << "required bandwidth: "
              << result.bandwidth.zeroPerMs()
              << " encoded zeros/ms + " << result.bandwidth.pi8PerMs()
              << " encoded pi/8/ms\n"
              << "logical throughput: " << result.klops()
              << " KLOPS\n";

    // Factory sizing and area split come with the result.
    const Area data = kDataQubitArea * result.qubits;
    const Area factories = result.allocation.totalArea();
    std::cout << "chip area: data " << data << " MB, QEC factories "
              << result.allocation.qecArea() << " MB, pi/8 chain "
              << result.allocation.pi8Area() << " MB  ("
              << 100.0 * factories / (data + factories)
              << "% of the chip is ancilla generation)\n\n";

    // The same experiment as a microarchitecture simulation on
    // Qalypso's fully-multiplexed organization: flip two fields.
    config.schedule = ScheduleMode::Arch;
    config.arch = "fma";
    const Result onChip = runExperiment(config);
    std::cout << "on " << onChip.arch << " ("
              << onChip.archRun.ancillaArea
              << " MB of factories): " << toMs(onChip.makespan)
              << " ms, " << onChip.slowdown()
              << "x the speed-of-data ideal\n\n";

    // Every result serializes for the BENCH_* trajectory files.
    std::cout << "result JSON:\n"
              << onChip.toJson().dump() << "\n";
    return 0;
}
