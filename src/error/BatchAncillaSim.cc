#include "error/BatchAncillaSim.hh"

#include <memory>
#include <vector>

#include "common/ParallelFor.hh"
#include "error/BatchEngine.hh"
#include "error/ImportanceSampler.hh"

namespace qc {

using Word = BatchPauliFrame::Word;

BatchAncillaSim::BatchAncillaSim(ErrorParams errors,
                                 MovementModel movement,
                                 std::uint64_t seed,
                                 CorrectionSemantics semantics,
                                 BatchSimConfig config)
    : errors_(errors), movement_(movement), semantics_(semantics),
      config_(config), seeder_(seed)
{
    if (config_.wordsPerQubit < 1)
        config_.wordsPerQubit = 1;
}

simd::Width
BatchAncillaSim::resolvedWidth() const
{
    return simd::resolveWidth(config_.width, config_.wordsPerQubit);
}

PrepEstimate
BatchAncillaSim::estimate(ZeroPrepStrategy strategy,
                          std::uint64_t trials)
{
    return run(strategy, /*pi8=*/false, trials);
}

PrepEstimate
BatchAncillaSim::estimatePi8(std::uint64_t trials)
{
    PrepEstimate est =
        run(ZeroPrepStrategy::VerifyAndCorrect, /*pi8=*/true, trials);
    // Match the scalar engine's reporting: estimatePi8 publishes
    // only the verification tallies.
    est.correctionTrials = 0;
    est.correctionDiscards = 0;
    return est;
}

StratifiedEstimate
BatchAncillaSim::estimateStratified(ZeroPrepStrategy strategy,
                                    const ImportanceConfig &config)
{
    StratifiedPrepSampler sampler(errors_, movement_, seeder_.split(),
                                  semantics_, config_.threads);
    return sampler.estimate(strategy, config);
}

StratifiedEstimate
BatchAncillaSim::estimateStratifiedPi8(const ImportanceConfig &config)
{
    StratifiedPrepSampler sampler(errors_, movement_, seeder_.split(),
                                  semantics_, config_.threads);
    return sampler.estimatePi8(config);
}

PrepEstimate
BatchAncillaSim::run(ZeroPrepStrategy strategy, bool pi8,
                     std::uint64_t trials)
{
    PrepEstimate est;
    est.trials = trials;
    if (trials == 0)
        return est;

    const int words = config_.wordsPerQubit;
    // Resolve the SIMD width up front (one env lookup / CPU probe
    // per run, and a forced-but-unsupported width fails loudly here
    // rather than inside a worker thread). Purely a throughput
    // choice: every width is bit-identical.
    const simd::Width width = resolvedWidth();
    const std::uint64_t per = static_cast<std::uint64_t>(64 * words);
    const std::uint64_t num_batches =
        trials / per + (trials % per != 0);

    // One independent RNG stream per batch, split deterministically
    // from this run's seed: results depend only on (construction
    // seed, call number, trial count), never on thread scheduling.
    Rng master = seeder_.split();
    std::vector<std::uint64_t> seeds(num_batches);
    for (auto &s : seeds)
        s = master();

    // One frame per worker, built on its first batch. Its tallies
    // are summed after the join; unsigned sums commute, so which
    // worker ran which batch cannot move the totals.
    std::vector<std::unique_ptr<BatchWorkerBase>> workers(
        static_cast<std::size_t>(resolveThreads(config_.threads)));
    const auto runBatch = [&](std::size_t b, std::size_t w) {
        std::unique_ptr<BatchWorkerBase> &worker = workers[w];
        if (!worker)
            worker = makeBatchWorker(width, errors_, movement_,
                                     semantics_, words);
        const std::uint64_t lo = b * per;
        const int k = static_cast<int>(
            std::min<std::uint64_t>(per, trials - lo));
        const Word *active = worker->activeMask(k);
        worker->runBatch(Rng(seeds[b]), strategy, pi8, active);
    };
    parallelFor(config_.threads, num_batches, runBatch);

    for (const std::unique_ptr<BatchWorkerBase> &worker : workers) {
        if (!worker)
            continue;
        est.failures += worker->failures;
        est.verifyTrials += worker->verifyAttempts;
        est.discards += worker->verifyFailures;
        est.correctionTrials += worker->correctionAttempts;
        est.correctionDiscards += worker->correctionFailures;
    }
    return est;
}

} // namespace qc
