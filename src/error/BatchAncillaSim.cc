#include "error/BatchAncillaSim.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ParallelFor.hh"
#include "error/BatchEngine.hh"

namespace qc {

using Word = BatchWorkerBase::Word;

BatchAncillaSim::BatchAncillaSim(ErrorParams errors,
                                 MovementModel movement,
                                 std::uint64_t seed,
                                 CorrectionSemantics semantics,
                                 BatchSimConfig config)
    : errors_(errors), movement_(movement), semantics_(semantics),
      config_(config), seeder_(seed)
{
    if (config_.wordsPerQubit < 1) {
        throw std::invalid_argument(
            "wordsPerQubit must be >= 1, got "
            + std::to_string(config_.wordsPerQubit));
    }
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
    return run(strategy, /*pi8=*/false, trials, {nullptr}).front();
}

PrepEstimate
BatchAncillaSim::estimatePi8(std::uint64_t trials)
{
    PrepEstimate est = run(ZeroPrepStrategy::VerifyAndCorrect,
                           /*pi8=*/true, trials, {nullptr})
                           .front();
    // Only the verification tallies are published for the pi/8
    // conversion.
    est.correctionTrials = 0;
    est.correctionDiscards = 0;
    return est;
}

StratifiedEstimate
BatchAncillaSim::estimateStratified(ZeroPrepStrategy strategy,
                                    const ImportanceConfig &config)
{
    return stratified(strategy, /*pi8=*/false, config);
}

StratifiedEstimate
BatchAncillaSim::estimateStratifiedPi8(const ImportanceConfig &config)
{
    return stratified(ZeroPrepStrategy::VerifyAndCorrect, /*pi8=*/true,
                      config);
}

StratifiedEstimate
BatchAncillaSim::stratified(ZeroPrepStrategy strategy, bool pi8,
                            const ImportanceConfig &config)
{
    const SiteCounts sites =
        makeBatchWorker(simd::Width::W64, errors_, movement_,
                        semantics_, 1)
            ->countSites(strategy, pi8);
    StratifiedEstimate out =
        stratify(sites.gate, sites.move, errors_, config);

    std::vector<FaultPlan> plans;
    for (const StratumEstimate &s : out.strata) {
        if (!s.analytic)
            plans.push_back(
                {sites.gate, sites.move, s.gateFaults, s.moveFaults});
    }
    std::vector<const FaultPlan *> jobs;
    for (const FaultPlan &plan : plans)
        jobs.push_back(&plan);
    const std::vector<PrepEstimate> tallies =
        run(strategy, pi8, config.trialsPerStratum, jobs);

    auto tally = tallies.begin();
    for (StratumEstimate &s : out.strata) {
        if (s.analytic)
            continue;
        s.trials = tally->trials;
        s.failures = tally->failures;
        out.totalTrials += s.trials;
        ++tally;
    }
    return out;
}

std::vector<PrepEstimate>
BatchAncillaSim::run(ZeroPrepStrategy strategy, bool pi8,
                     std::uint64_t trials,
                     const std::vector<const FaultPlan *> &plans)
{
    std::vector<PrepEstimate> est(plans.size());
    for (PrepEstimate &e : est)
        e.trials = trials;
    if (trials == 0 || plans.empty())
        return est;

    const int words = config_.wordsPerQubit;
    // Resolve the SIMD width up front (one env lookup / CPU probe
    // per run, and a forced-but-unsupported width fails loudly here
    // rather than inside a worker thread). Purely a throughput
    // choice: every width is bit-identical.
    const simd::Width width = resolvedWidth();
    const std::uint64_t per = static_cast<std::uint64_t>(64 * words);
    const std::uint64_t jobBatches = trials / per + (trials % per != 0);
    const std::uint64_t num_batches = jobBatches * plans.size();

    // One independent RNG stream per batch, split deterministically
    // from this run's seed: results depend only on (construction
    // seed, call number, trial count), never on thread scheduling.
    Rng master = seeder_.split();
    std::vector<std::uint64_t> seeds(num_batches);
    for (auto &s : seeds)
        s = master();

    // One frame per worker, built on its first batch, and one tally
    // per (worker, job), summed after the join; unsigned sums
    // commute, so which worker ran which batch cannot move the
    // totals.
    const std::size_t threads =
        static_cast<std::size_t>(resolveThreads(config_.threads));
    std::vector<std::unique_ptr<BatchWorkerBase>> workers(threads);
    std::vector<PrepEstimate> tallies(threads * plans.size());
    const auto runBatch = [&](std::size_t b, std::size_t w) {
        std::unique_ptr<BatchWorkerBase> &worker = workers[w];
        if (!worker)
            worker = makeBatchWorker(width, errors_, movement_,
                                     semantics_, words);
        const std::size_t job = b / jobBatches;
        const std::uint64_t lo = b % jobBatches * per;
        const int k = static_cast<int>(
            std::min<std::uint64_t>(per, trials - lo));
        const Word *active = worker->activeMask(k);
        worker->runBatch(Rng(seeds[b]), strategy, pi8, active,
                         plans[job],
                         tallies[w * plans.size() + job]);
    };
    parallelFor(config_.threads, num_batches, runBatch);

    for (std::size_t i = 0; i < tallies.size(); ++i) {
        const PrepEstimate &t = tallies[i];
        PrepEstimate &e = est[i % plans.size()];
        e.failures += t.failures;
        e.verifyTrials += t.verifyTrials;
        e.discards += t.discards;
        e.correctionTrials += t.correctionTrials;
        e.correctionDiscards += t.correctionDiscards;
    }
    return est;
}

} // namespace qc
