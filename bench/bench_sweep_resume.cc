/**
 * @file
 * Measures sweep resume and emits BENCH_sweep_resume.json: a sweep
 * run, then re-run against the same temporary result store (how
 * `qcarch sweep` resumes). Every point must be served from the
 * store (executed == 0) and the re-run's document must be
 * byte-identical to the first. The JSON records the skip accounting
 * ("resumed" counts store hits) and the determinism check.
 *
 * Usage: bench_sweep_resume [out=PATH]
 */

#include <filesystem>
#include <iostream>
#include <string>

#include <unistd.h>

#include "BenchCommon.hh"
#include "hoard/Hoard.hh"
#include "sweep/Sweep.hh"

using namespace qc;

int
main(int argc, char **argv)
{
    const std::string out = bench::argString(
        argc, argv, "out", "BENCH_sweep_resume.json");

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
    return resumeIdentical ? 0 : 1;
}
