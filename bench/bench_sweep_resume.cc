/**
 * @file
 * Measures the two sweep-at-scale mechanisms behind Table 5-8-size
 * grids and emits BENCH_sweep_resume.json:
 *
 *  - **Const-shared-workload mode.** Per-point cost of an
 *    Experiment over a 32-bit paper workload when both the built
 *    workload and its DataflowGraph are shared immutably across
 *    points (the sweep engine's cross-point cache), versus sharing
 *    only the workload and rebuilding the graph per point — the
 *    pre-PR-5 behaviour. Results must be bit-identical between the
 *    modes; the JSON records both rates and the parity check.
 *
 *  - **Resume.** A sweep run, then re-run against the same
 *    temporary result store (how `qcarch sweep` resumes): every
 *    point must be served from the store (executed == 0) and the
 *    re-run's document must be byte-identical to the first. The
 *    JSON records the skip accounting ("resumed" counts store
 *    hits) and the determinism check.
 *
 * Usage: bench_sweep_resume [points=N] [out=PATH]
 */

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "BenchCommon.hh"
#include "hoard/Hoard.hh"

namespace {

using namespace qc;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Distinct per-point configs sharing one workload (the shape of a
 *  factory design-space sweep: same kernel, varying knobs). */
std::vector<ExperimentConfig>
sweepPoints(int n)
{
    std::vector<ExperimentConfig> out;
    for (int i = 0; i < n; ++i) {
        ExperimentConfig config = ExperimentConfig::paper("qrca");
        config.demandBins = 20 + i;
        out.push_back(config);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const int n = static_cast<int>(
        bench::argValue(argc, argv, "points", 64));
    const std::string out = bench::argString(
        argc, argv, "out", "BENCH_sweep_resume.json");

    bench::section("const-shared-workload mode");
    FowlerSynth synth(ExperimentConfig::paper("qrca").synth);
    SharedWorkload shared = makeSharedWorkload(
        WorkloadRegistry::instance().build(
            "qrca", synth, ExperimentConfig::paper("qrca").params));
    const std::vector<ExperimentConfig> points = sweepPoints(n);

    // Workload shared, graph rebuilt per point (the old behaviour).
    auto t0 = Clock::now();
    std::string copiedDump;
    for (const ExperimentConfig &config : points) {
        Experiment experiment(config, shared.workload);
        copiedDump = experiment.run().toJson().dump(0);
    }
    const double copiedSeconds = seconds(t0);

    // Workload AND graph shared (the sweep engine's mode).
    t0 = Clock::now();
    std::string sharedDump;
    for (const ExperimentConfig &config : points) {
        Experiment experiment(config, shared);
        sharedDump = experiment.run().toJson().dump(0);
    }
    const double sharedSeconds = seconds(t0);

    const double copiedRate = n / copiedSeconds;
    const double sharedRate = n / sharedSeconds;
    const bool identical = copiedDump == sharedDump;
    std::cout << n << " points: graph-per-point "
              << fmtFixed(copiedRate, 1) << " points/s, shared graph "
              << fmtFixed(sharedRate, 1) << " points/s (x"
              << fmtFixed(sharedRate / copiedRate, 2)
              << "), results "
              << (identical ? "bit-identical" : "DIFFER") << "\n";

    bench::section("resume determinism");
    const SweepSpec spec = SweepSpec::fromJson(Json::parse(R"({
      "name": "resume_bench",
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 8,
               "synth": {"maxSyllables": 3}},
      "axes": [
        {"field": "schedule", "values": ["speed-of-data", "arch"]},
        {"field": "codeLevel", "values": [1, 2]}
      ]
    })"));
    const std::string storeDir =
        (std::filesystem::temp_directory_path()
         / ("bench_sweep_resume-" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(storeDir);
    SweepReport fresh, resumed;
    {
        HoardStore store(storeDir);
        SweepOptions storeOptions;
        storeOptions.hoard = &store;
        fresh = runSweep(spec, storeOptions);
        resumed = runSweep(spec, storeOptions);
    }
    std::filesystem::remove_all(storeDir);
    const bool resumeIdentical =
        fresh.doc.dump() == resumed.doc.dump();
    std::cout << resumed.points << " points re-run: "
              << resumed.hoardHits << " from the store, "
              << resumed.executed << " executed, document "
              << (resumeIdentical ? "byte-identical" : "DIFFERS")
              << "\n";

    Json doc = Json::object();
    doc.set("bench", "sweep_resume");
    doc.set("workload", "qrca");
    doc.set("bits", 32);
    Json sharing = Json::object();
    sharing.set("points", n);
    // The "_per_sec" suffix marks wall-clock rates for
    // check_bench_regression.py (regression-direction-only check).
    sharing.set("graph_per_point_points_per_sec", copiedRate);
    sharing.set("shared_graph_points_per_sec", sharedRate);
    sharing.set("speedup", sharedRate / copiedRate);
    sharing.set("results_identical", identical);
    doc.set("shared_workload", sharing);
    Json resume = Json::object();
    resume.set("points",
               static_cast<std::int64_t>(resumed.points));
    resume.set("resumed",
               static_cast<std::int64_t>(resumed.hoardHits));
    resume.set("executed",
               static_cast<std::int64_t>(resumed.executed));
    resume.set("byte_identical", resumeIdentical);
    doc.set("resume", resume);
    doc.saveFile(out);
    std::cout << "wrote " << out << "\n";
    return identical && resumeIdentical ? 0 : 1;
}
