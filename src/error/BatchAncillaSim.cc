#include "error/BatchAncillaSim.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "codes/SteaneCode.hh"
#include "common/ParallelFor.hh"
#include "error/BatchEngine.hh"

namespace qc {

namespace {

/**
 * The first-fault hazards along a path, and in `q` the chance of at
 * least one fault on it. P(a fault at sites j..end) follows
 * Q_j = p_j + (1 - p_j) Q_{j+1}, which keeps its relative precision
 * where Q_j is tiny and gives the last site with p > 0 hazard 1.
 */
FirstFaults
firstFaults(const NominalPath &path, const ErrorParams &errors,
            bool coin, double &q)
{
    FirstFaults out;
    out.coin = coin;
    out.hazard.resize(path.sites.size());
    double tail = 0.0;
    for (std::size_t j = path.sites.size(); j-- > 0;) {
        const double p =
            path.sites[j].gate ? errors.pGate : errors.pMove;
        tail = p + (1.0 - p) * tail;
        out.hazard[j] = tail > 0.0 ? p / tail : 0.0;
    }
    q = tail;
    return out;
}

/** Binomial(n, p) as one draw per `chunk` trials, the last chunk
 *  taking the rest. */
std::uint64_t
drawChunked(Rng &rng, std::uint64_t n, double p, std::uint64_t chunk)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    std::uint64_t k = 0;
    if (n >= chunk) {
        const BinomialTable full(chunk, p);
        for (std::uint64_t i = n / chunk; i > 0; --i)
            k += full.draw(rng);
    }
    if (n % chunk)
        k += BinomialTable(n % chunk, p).draw(rng);
    return k;
}

/**
 * f_00 of the stratified pi/8 estimate: the failure chance of a
 * trial with no fault among the coin-off path's sites. With the
 * coin off (one half) it walks that path and cannot fail. With the
 * coin on it walks the coin-on path, whose extra sites at its end
 * are the fix-up's one-qubit gate sites on block A, at the natural
 * rate; the sum runs over their 4^n Pauli patterns and classifies
 * each as the engine does.
 */
double
fixUpFailure(const NominalPath &off, const NominalPath &on,
             double pGate)
{
    const std::size_t n = off.sites.size();
    if (on.sites.size() < n
        || !std::equal(off.sites.begin(), off.sites.end(),
                       on.sites.begin())) {
        throw std::logic_error(
            "pi/8: the coin-on path does not extend the coin-off path");
    }
    std::vector<int> qubits;
    for (std::size_t j = n; j < on.sites.size(); ++j) {
        const NominalPath::Site &s = on.sites[j];
        const int q = s.a - batch_detail::blockA;
        if (!s.gate || s.readout || s.b >= 0 || q < 0
            || q >= SteaneCode::numPhysical) {
            throw std::logic_error(
                "pi/8: a fix-up site is not a one-qubit gate site on "
                "block A");
        }
        qubits.push_back(q);
    }
    double fail = 0.0;
    const std::size_t patterns = std::size_t{1} << (2 * qubits.size());
    for (std::size_t k = 0; k < patterns; ++k) {
        double prob = 1.0;
        SteaneCode::Mask x = 0, z = 0;
        for (std::size_t i = 0; i < qubits.size(); ++i) {
            // As the engine's pauli1q: 1 = X, 2 = Z, 3 = Y.
            const unsigned pauli = (k >> (2 * i)) & 3u;
            prob *= pauli ? pGate / 3.0 : 1.0 - pGate;
            const auto bit = static_cast<SteaneCode::Mask>(1u << qubits[i]);
            if (pauli & 1u)
                x ^= bit;
            if (pauli & 2u)
                z ^= bit;
        }
        if (SteaneCode::badCoset(x) || SteaneCode::badCoset(z))
            fail += prob;
    }
    return 0.5 * fail;
}

/** Add every tally of `t` but `trials` to `into`. */
void
addTallies(PrepEstimate &into, const PrepEstimate &t)
{
    into.failures += t.failures;
    into.verifyTrials += t.verifyTrials;
    into.discards += t.discards;
    into.correctionTrials += t.correctionTrials;
    into.correctionDiscards += t.correctionDiscards;
}

} // namespace

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
    return naive(strategy, /*pi8=*/false, trials);
}

PrepEstimate
BatchAncillaSim::estimatePi8(std::uint64_t trials)
{
    PrepEstimate est =
        naive(ZeroPrepStrategy::VerifyAndCorrect, /*pi8=*/true, trials);
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

NominalPath
BatchAncillaSim::probe(ZeroPrepStrategy strategy, bool pi8,
                       bool coin) const
{
    return makeBatchWorker(simd::Width::W64, errors_, movement_,
                           semantics_, 1)
        ->probe(strategy, pi8, coin);
}

PrepEstimate
BatchAncillaSim::naive(ZeroPrepStrategy strategy, bool pi8,
                       std::uint64_t trials)
{
    PrepEstimate est;
    est.trials = trials;
    if (trials == 0)
        return est;

    // The nominal path per fix-up coin value (off, then on), its
    // first-fault hazards and its chance q of at least one fault.
    std::vector<NominalPath> paths{probe(strategy, pi8, false)};
    if (pi8)
        paths.push_back(probe(strategy, pi8, true));
    std::vector<FirstFaults> faults;
    std::vector<double> q(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i)
        faults.push_back(firstFaults(paths[i], errors_, i == 1, q[i]));

    // How many trials fault, K ~ Binomial(N, q) with q averaged over
    // the fair coin; for pi/8, how many of them have the coin on,
    // P(on | fault) = q_on / (q_on + q_off).
    Rng master = seeder_.split();
    const auto per = static_cast<std::uint64_t>(batchTrials());
    const double qMean = pi8 ? (q[0] + q[1]) / 2 : q[0];
    const std::uint64_t faulty = drawChunked(master, trials, qMean, per);
    std::vector<BatchJob> jobs{{faulty, nullptr, &faults[0]}};
    if (pi8) {
        const std::uint64_t on = qMean > 0.0
            ? drawChunked(master, faulty, q[1] / (q[0] + q[1]), per)
            : 0;
        jobs[0].trials -= on;
        jobs.push_back({on, nullptr, &faults[1]});
    }

    // The N - K trials that meet no fault walk the nominal path:
    // its tallies each, no failure and no discard. (Both coin
    // values verify and correct alike.)
    const std::uint64_t clean = trials - faulty;
    est.verifyTrials = clean * paths[0].tally.verifyTrials;
    est.correctionTrials = clean * paths[0].tally.correctionTrials;
    for (const PrepEstimate &t : run(strategy, pi8, jobs, master))
        addTallies(est, t);
    return est;
}

StratifiedEstimate
BatchAncillaSim::stratified(ZeroPrepStrategy strategy, bool pi8,
                            const ImportanceConfig &config)
{
    const NominalPath path = probe(strategy, pi8, /*coin=*/false);
    StratifiedEstimate out =
        stratify(path.gateSites(), path.moveSites(), errors_, config);
    // Zero faults on the nominal path cannot fail a zero prep. A
    // pi/8 (0,0) trial still can: the coin-on path's fix-up sites
    // lie past the coin-off path's N_g.
    if (pi8) {
        out.strata.front().exactRate = fixUpFailure(
            path, probe(strategy, pi8, /*coin=*/true), errors_.pGate);
    }

    std::vector<FaultPlan> plans;
    for (const StratumEstimate &s : out.strata) {
        if (!s.analytic)
            plans.push_back({path.gateSites(), path.moveSites(),
                             s.gateFaults, s.moveFaults});
    }
    std::vector<BatchJob> jobs;
    for (const FaultPlan &plan : plans)
        jobs.push_back({config.trialsPerStratum, &plan, nullptr});
    std::vector<PrepEstimate> tallies(jobs.size());
    if (!jobs.empty() && config.trialsPerStratum > 0) {
        Rng master = seeder_.split();
        tallies = run(strategy, pi8, jobs, master);
    }

    auto tally = tallies.begin();
    for (StratumEstimate &s : out.strata) {
        if (s.analytic)
            continue;
        s.trials = config.trialsPerStratum;
        s.failures = tally->failures;
        out.totalTrials += s.trials;
        ++tally;
    }
    return out;
}

std::vector<PrepEstimate>
BatchAncillaSim::run(ZeroPrepStrategy strategy, bool pi8,
                     const std::vector<BatchJob> &jobs, Rng &master)
{
    const int words = config_.wordsPerQubit;
    // Resolve the SIMD width up front (one env lookup / CPU probe
    // per run, and a forced-but-unsupported width fails loudly here
    // rather than inside a worker thread). Purely a throughput
    // choice: every width is bit-identical.
    const simd::Width width = resolvedWidth();
    const auto per = static_cast<std::uint64_t>(64 * words);
    // Job j's batches are [first[j], first[j + 1]).
    std::vector<std::uint64_t> first{0};
    for (const BatchJob &job : jobs)
        first.push_back(first.back() + job.trials / per
                        + (job.trials % per != 0));
    const std::uint64_t num_batches = first.back();

    // One independent RNG stream per batch, split deterministically
    // from this run's seed: results depend only on (construction
    // seed, call number, trial count), never on thread scheduling.
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
    std::vector<PrepEstimate> tallies(threads * jobs.size());
    const auto runBatch = [&](std::size_t b, std::size_t w) {
        std::unique_ptr<BatchWorkerBase> &worker = workers[w];
        if (!worker)
            worker = makeBatchWorker(width, errors_, movement_,
                                     semantics_, words);
        const auto job = static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), b)
            - first.begin() - 1);
        const std::uint64_t lo = (b - first[job]) * per;
        const int k = static_cast<int>(
            std::min<std::uint64_t>(per, jobs[job].trials - lo));
        PrepEstimate &tally = tallies[w * jobs.size() + job];
        if (jobs[job].plan)
            worker->runBatch(Rng(seeds[b]), strategy, pi8, k,
                             *jobs[job].plan, tally);
        else
            worker->runBatch(Rng(seeds[b]), strategy, pi8, k,
                             *jobs[job].faults, tally);
    };
    parallelFor(config_.threads, num_batches, runBatch);

    std::vector<PrepEstimate> est(jobs.size());
    for (std::size_t i = 0; i < tallies.size(); ++i)
        addTallies(est[i % jobs.size()], tallies[i]);
    return est;
}

} // namespace qc
