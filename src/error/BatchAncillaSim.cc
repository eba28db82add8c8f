#include "error/BatchAncillaSim.hh"

#include <atomic>
#include <thread>
#include <vector>

#include "common/Mutex.hh"
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
    const std::uint64_t num_batches = (trials + per - 1) / per;

    // One independent RNG stream per batch, split deterministically
    // from this run's seed: results depend only on (construction
    // seed, call number, trial count), never on thread scheduling.
    Rng master = seeder_.split();
    std::vector<std::uint64_t> seeds(num_batches);
    for (auto &s : seeds)
        s = master();

    int threads = config_.threads;
    if (threads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw ? static_cast<int>(hw) : 1;
    }
    if (static_cast<std::uint64_t>(threads) > num_batches)
        threads = static_cast<int>(num_batches);

    /**
     * Cross-thread tally aggregation behind an annotated mutex:
     * each worker folds its whole-run counters in once, at the end.
     * Unsigned sums commute, so the (scheduling-dependent) merge
     * order cannot affect the totals — thread-count invariance of
     * the estimate is preserved by algebra, not by ordering.
     */
    struct TallyBoard
    {
        Mutex mutex;
        std::uint64_t failures QC_GUARDED_BY(mutex) = 0;
        std::uint64_t verifyTrials QC_GUARDED_BY(mutex) = 0;
        std::uint64_t discards QC_GUARDED_BY(mutex) = 0;
        std::uint64_t correctionTrials QC_GUARDED_BY(mutex) = 0;
        std::uint64_t correctionDiscards QC_GUARDED_BY(mutex) = 0;
    } tallies;

    // The batch-claim counter is memory_order_relaxed on purpose:
    // it only partitions indices. Each claimed batch touches
    // nothing shared (worker-local frame, read-only seed table),
    // and every tally is published under tallies.mutex after the
    // loop — the counter itself synchronizes nothing. See
    // docs/ANALYSIS.md ("Relaxed atomics").
    std::atomic<std::uint64_t> next{0};

    auto work = [&]() {
        const std::unique_ptr<BatchWorkerBase> worker =
            makeBatchWorker(width, errors_, movement_, semantics_,
                            words);
        for (;;) {
            const std::uint64_t b =
                next.fetch_add(1, std::memory_order_relaxed);
            if (b >= num_batches)
                break;
            const std::uint64_t lo = b * per;
            const int k = static_cast<int>(
                std::min<std::uint64_t>(per, trials - lo));
            const Word *active = worker->activeMask(k);
            worker->runBatch(Rng(seeds[b]), strategy, pi8, active);
        }
        MutexLock lock(tallies.mutex);
        tallies.failures += worker->failures;
        tallies.verifyTrials += worker->verifyAttempts;
        tallies.discards += worker->verifyFailures;
        tallies.correctionTrials += worker->correctionAttempts;
        tallies.correctionDiscards += worker->correctionFailures;
    };

    if (threads == 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(work);
        for (auto &th : pool)
            th.join();
    }

    {
        MutexLock lock(tallies.mutex);
        est.failures = tallies.failures;
        est.verifyTrials = tallies.verifyTrials;
        est.discards = tallies.discards;
        est.correctionTrials = tallies.correctionTrials;
        est.correctionDiscards = tallies.correctionDiscards;
    }
    return est;
}

} // namespace qc
