/**
 * @file
 * Machine-readable Monte Carlo engine baseline: times the scalar
 * reference engine (the test oracle, tests/ScalarAncillaSim.hh)
 * against the bit-parallel batched engine on the Figure 4
 * workloads, measures the batched engine at every SIMD width the
 * build supports, compares the naive and stratified
 * (rare-event importance sampling) estimators, measures multicore
 * thread scaling of both the batched engine and the sweep engine,
 * and writes everything to BENCH_mc_engine.json so future PRs can
 * track the trajectory of the simulation hot path without parsing
 * human-oriented tables.
 *
 * Trial rates and speedups are wall-clock measurements: they are
 * machine-dependent, and the CI regression gate treats them as
 * regression-only metrics (tools/check_bench_regression.py); the
 * dispatched_* keys record which width/ISA auto-dispatch picked on
 * the bench machine and are ignored by the gate. The error rates,
 * intervals and site counts are deterministic for a given (seed,
 * trials).
 *
 * Usage: bench_mc_engine_json [trials=N] [seed=S] [out=PATH]
 *        [scaling=0|1] [quick=0|1]
 *   trials   batch-engine trials per workload (scalar runs
 *            trials/16 to keep the wall time balanced)
 *   scaling  measure thread scaling (default 1; always runs
 *            threads 1/2/4 — on fewer cores the oversubscribed
 *            rows document the flat-scaling floor)
 *   quick    emit only the deterministic outputs (error rates and
 *            stratified estimates; no timings, no dispatch info).
 *            The CI width-dispatch matrix diffs this output
 *            byte-for-byte across QC_FORCE_WIDTH settings.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "error/AncillaSim.hh"
#include "error/BatchAncillaSim.hh"
#include "sweep/Sweep.hh"

#include "../tests/ScalarAncillaSim.hh"

namespace {

using namespace qc;
using Clock = std::chrono::steady_clock;

/** The integer argument name=value, or `fallback` when absent. */
std::uint64_t
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

/** The string argument name=value, or `fallback` when absent. */
std::string
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

template <typename F>
double
trialsPerSec(std::uint64_t trials, F &&body)
{
    const auto t0 = Clock::now();
    body();
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return secs > 0 ? static_cast<double>(trials) / secs : 0.0;
}

struct McWorkload
{
    const char *key;
    ZeroPrepStrategy strategy;
    bool pi8;
};

constexpr McWorkload kWorkloads[] = {
    {"basic_prep", ZeroPrepStrategy::Basic, false},
    {"verify_and_correct", ZeroPrepStrategy::VerifyAndCorrect,
     false},
    {"pi8_conversion", ZeroPrepStrategy::VerifyAndCorrect, true},
};

/** The in-memory 8-point mc-prep spec used for sweep scaling. */
SweepSpec
scalingSpec(std::uint64_t trials, std::uint64_t seed)
{
    Json doc = Json::object();
    doc.set("name", "mc_engine_thread_scaling");
    doc.set("runner", "mc-prep");
    Json base = Json::object();
    base.set("trials", trials);
    base.set("seed", seed);
    base.set("strategy", "verify_and_correct");
    doc.set("base", base);
    Json axes = Json::array();
    Json axis = Json::object();
    axis.set("field", "pGate");
    Json values = Json::array();
    for (double p : {1e-5, 2e-5, 3e-5, 5e-5, 1e-4, 2e-4, 3e-4,
                     5e-4})
        values.push(p);
    axis.set("values", values);
    axes.push(axis);
    doc.set("axes", axes);
    return SweepSpec::fromJson(doc);
}

/** Stratified estimate at (pGate, pMove), serialized to JSON. */
Json
stratifiedJson(double p_gate, double p_move, std::uint64_t seed,
               bool pi8)
{
    ErrorParams errors;
    errors.pGate = p_gate;
    errors.pMove = p_move;
    BatchAncillaSim sim(errors, MovementModel{}, seed);
    ImportanceConfig ic;
    ic.maxFaults = 4;
    ic.trialsPerStratum = 20000;
    const StratifiedEstimate est = pi8
        ? sim.estimateStratifiedPi8(ic)
        : sim.estimateStratified(
              ZeroPrepStrategy::VerifyAndCorrect, ic);
    const Interval ci = est.errorInterval();
    Json j = Json::object();
    j.set("pGate", p_gate);
    j.set("pMove", p_move);
    j.set("error_rate", est.errorRate());
    j.set("ci_lo", ci.lo);
    j.set("ci_hi", ci.hi);
    j.set("gate_sites", static_cast<std::int64_t>(est.gateSites));
    j.set("move_sites", static_cast<std::int64_t>(est.moveSites));
    j.set("strata", static_cast<std::int64_t>(est.strata.size()));
    j.set("truncated_prior", est.truncatedPrior);
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argValue(argc, argv, "quick", 0) != 0;
    const std::uint64_t trials = argValue(
        argc, argv, "trials", quick ? 1048576 : 4000000);
    const std::uint64_t seed =
        argValue(argc, argv, "seed", 20080623);
    const bool scaling = !quick
        && argValue(argc, argv, "scaling", 1) != 0;
    const std::string out = argString(
        argc, argv, "out", "BENCH_mc_engine.json");

    Json doc = Json::object();
    doc.set("engine", "BatchAncillaSim");
    doc.set("batch_trials_per_word_op", 64);
    doc.set("trials", trials);
    doc.set("seed", seed);

    Json workloadsJson = Json::object();
    for (const McWorkload &w : kWorkloads) {
        Json j = Json::object();

        BatchAncillaSim batch(ErrorParams::paper(), MovementModel{},
                              seed);
        PrepEstimate batch_est;
        const double batch_rate = trialsPerSec(trials, [&] {
            batch_est = w.pi8 ? batch.estimatePi8(trials)
                              : batch.estimate(w.strategy, trials);
        });
        j.set("batch_error_rate", batch_est.errorRate());

        if (!quick) {
            const std::uint64_t scalar_trials = trials / 16;
            scalar::AncillaPrepSimulator scalar(ErrorParams::paper(),
                                                MovementModel{}, seed);
            PrepEstimate scalar_est;
            const double scalar_rate =
                trialsPerSec(scalar_trials, [&] {
                    scalar_est = w.pi8
                        ? scalar.estimateScalarPi8(scalar_trials)
                        : scalar.estimateScalar(w.strategy,
                                                scalar_trials);
                });
            j.set("scalar_trials_per_sec", scalar_rate);
            j.set("batch_trials_per_sec", batch_rate);
            j.set("speedup", scalar_rate > 0
                                 ? batch_rate / scalar_rate
                                 : 0.0);
            j.set("scalar_error_rate", scalar_est.errorRate());
            std::cout << w.key << ": scalar " << scalar_rate / 1e6
                      << " Mtrials/s, batch " << batch_rate / 1e6
                      << " Mtrials/s ("
                      << (scalar_rate > 0
                              ? batch_rate / scalar_rate
                              : 0.0)
                      << "x)\n";
        }
        workloadsJson.set(w.key, j);
    }
    doc.set("workloads", workloadsJson);

    // Stratified (rare-event importance sampling) estimator: a
    // feasible validation point whose naive CI it must straddle,
    // and a deep-subthreshold point naive MC cannot resolve at any
    // reasonable trial count. Both are deterministic.
    {
        Json samplerJson = Json::object();
        const double vGate = 1e-3, vMove = 1e-5;
        samplerJson.set(
            "validation_stratified",
            stratifiedJson(vGate, vMove, seed, /*pi8=*/false));
        samplerJson.set(
            "deep_stratified",
            stratifiedJson(1e-5, 1e-7, seed, /*pi8=*/false));
        samplerJson.set(
            "deep_stratified_pi8",
            stratifiedJson(1e-5, 1e-7, seed, /*pi8=*/true));
        if (!quick) {
            ErrorParams errors;
            errors.pGate = vGate;
            errors.pMove = vMove;
            BatchAncillaSim sim(errors, MovementModel{}, seed);
            const std::uint64_t vTrials = 4000000;
            PrepEstimate naive;
            const double naive_rate = trialsPerSec(vTrials, [&] {
                naive = sim.estimate(
                    ZeroPrepStrategy::VerifyAndCorrect, vTrials);
            });
            const Interval ci = naive.errorInterval();
            Json j = Json::object();
            j.set("pGate", vGate);
            j.set("pMove", vMove);
            j.set("error_rate", naive.errorRate());
            j.set("ci_lo", ci.lo);
            j.set("ci_hi", ci.hi);
            j.set("trials_per_sec", naive_rate);
            samplerJson.set("validation_naive", j);
        }
        doc.set("sampler", samplerJson);
    }

    if (quick) {
        // Deterministic-only output: byte-identical across SIMD
        // widths by construction, which the CI width matrix checks
        // with cmp. Timings and dispatch info would break that.
        try {
            doc.saveFile(out);
        } catch (const std::invalid_argument &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
        std::cout << "wrote " << out << " (quick)\n";
        return 0;
    }

    // Per-width throughput of the batched engine on the basic-prep
    // workload (the purest frame-op hot loop). Every width returns
    // bit-identical tallies; only the rate moves. The seed-shape
    // row pins the pre-SIMD engine configuration (64-bit words,
    // 4 words per qubit) so the history of BENCH_mc_engine.json
    // documents what the width dispatch bought end to end.
    {
        doc.set("dispatched_width",
                simd::widthName(simd::resolveWidth(
                    simd::Width::Auto)));
        doc.set("dispatched_isa", simd::dispatchedIsa());

        Json widthsJson = Json::object();
        double w64_rate = 0.0;
        for (simd::Width w :
             {simd::Width::W64, simd::Width::W128,
              simd::Width::W256, simd::Width::W512}) {
            if (!simd::widthSupported(w))
                continue;
            BatchSimConfig config;
            config.width = w;
            BatchAncillaSim sim(ErrorParams::paper(),
                                MovementModel{}, seed,
                                CorrectionSemantics::
                                    DiscardOnSyndrome,
                                config);
            const double rate = trialsPerSec(trials, [&] {
                sim.estimate(ZeroPrepStrategy::Basic, trials);
            });
            if (w == simd::Width::W64)
                w64_rate = rate;
            Json j = Json::object();
            j.set("basic_prep_trials_per_sec", rate);
            widthsJson.set(simd::widthName(w), j);
            std::cout << "width=" << simd::widthName(w) << ": "
                      << rate / 1e6 << " Mtrials/s\n";
        }

        BatchSimConfig seedShape;
        seedShape.width = simd::Width::W64;
        seedShape.wordsPerQubit = 4;
        BatchAncillaSim seedSim(ErrorParams::paper(),
                                MovementModel{}, seed,
                                CorrectionSemantics::
                                    DiscardOnSyndrome,
                                seedShape);
        const double seed_shape_rate = trialsPerSec(trials, [&] {
            seedSim.estimate(ZeroPrepStrategy::Basic, trials);
        });

        BatchAncillaSim autoSim(ErrorParams::paper(),
                                MovementModel{}, seed);
        const double wide_rate = trialsPerSec(trials, [&] {
            autoSim.estimate(ZeroPrepStrategy::Basic, trials);
        });

        widthsJson.set("w64_seed_shape_trials_per_sec",
                       seed_shape_rate);
        widthsJson.set("wide_trials_per_sec", wide_rate);
        widthsJson.set("speedup_wide_vs_w64",
                       w64_rate > 0 ? wide_rate / w64_rate : 0.0);
        widthsJson.set("speedup_wide_vs_w64_seed_shape",
                       seed_shape_rate > 0
                           ? wide_rate / seed_shape_rate
                           : 0.0);
        doc.set("widths", widthsJson);
        std::cout << "wide (auto) " << wide_rate / 1e6
                  << " Mtrials/s = "
                  << (w64_rate > 0 ? wide_rate / w64_rate : 0.0)
                  << "x w64, "
                  << (seed_shape_rate > 0
                          ? wide_rate / seed_shape_rate
                          : 0.0)
                  << "x w64 seed shape\n";
    }

    // Multicore thread scaling: the batched engine sharding one
    // estimate across its own threads, and the sweep engine
    // spreading whole points across its workers. Both
    // are bit-identical across thread counts; only the rates move.
    if (scaling) {
        const unsigned hw = std::thread::hardware_concurrency();
        Json scalingJson = Json::object();
        scalingJson.set("hardware_concurrency",
                        static_cast<int>(hw ? hw : 1));

        const std::uint64_t scalingTrials = trials / 4;
        Json engineJson = Json::object();
        Json sweepJson = Json::object();
        for (int threads : {1, 2, 4}) {
            BatchSimConfig config;
            config.threads = threads;
            BatchAncillaSim sim(ErrorParams::paper(),
                                MovementModel{}, seed,
                                CorrectionSemantics::
                                    DiscardOnSyndrome,
                                config);
            const double rate = trialsPerSec(scalingTrials, [&] {
                sim.estimate(ZeroPrepStrategy::VerifyAndCorrect,
                             scalingTrials);
            });
            Json e = Json::object();
            e.set("trials_per_sec", rate);
            engineJson.set(std::to_string(threads), e);

            const SweepSpec spec =
                scalingSpec(scalingTrials / 8, seed);
            SweepOptions options;
            options.threads = threads;
            const SweepReport report = runSweep(spec, options);
            Json s = Json::object();
            s.set("points", report.points);
            s.set("points_per_sec",
                  report.wallSeconds > 0
                      ? static_cast<double>(report.points)
                          / report.wallSeconds
                      : 0.0);
            sweepJson.set(std::to_string(threads), s);

            std::cout << "threads=" << threads << ": engine "
                      << rate / 1e6 << " Mtrials/s, sweep "
                      << (report.wallSeconds > 0
                              ? static_cast<double>(report.points)
                                  / report.wallSeconds
                              : 0.0)
                      << " points/s\n";
        }
        scalingJson.set("engine_trials",
                        Json(scalingTrials));
        scalingJson.set("batch_engine", engineJson);
        scalingJson.set("sweep_engine", sweepJson);
        doc.set("thread_scaling", scalingJson);
    }

    try {
        doc.saveFile(out);
    } catch (const std::invalid_argument &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    std::cout << "wrote " << out << "\n";
    return 0;
}
