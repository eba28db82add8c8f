/**
 * @file
 * Tests for the rare-event importance sampler
 * (error/ImportanceSampler.hh) on the batch engine: stratum weights
 * against the closed-form binomial pmf, site counts against the
 * nominal circuit and the scalar oracle's dry run, each stratum
 * against the scalar oracle's r-of-m schedule, agreement with naive
 * Monte Carlo at a feasible point, determinism across thread
 * counts, and the conservative handling of the truncated prior
 * tail.
 */

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>

#include "codes/SteaneCode.hh"
#include "common/Stats.hh"
#include "error/BatchAncillaSim.hh"
#include "error/ImportanceSampler.hh"

#include "ScalarAncillaSim.hh"

namespace qc {
namespace {

using scalar::AncillaPrepSimulator;

bool
overlap(const Interval &a, const Interval &b)
{
    return a.lo <= b.hi && b.lo <= a.hi;
}

/** Closed-form binomial pmf via lgamma, the reference formula. */
double
referencePmf(std::uint64_t n, double p, std::uint64_t k)
{
    const double logc = std::lgamma(static_cast<double>(n) + 1)
        - std::lgamma(static_cast<double>(k) + 1)
        - std::lgamma(static_cast<double>(n - k) + 1);
    return std::exp(logc + static_cast<double>(k) * std::log(p)
                    + static_cast<double>(n - k)
                        * std::log1p(-p));
}

TEST(BinomialPmf, MatchesClosedFormAcrossRegimes)
{
    for (std::uint64_t n : {1ull, 7ull, 19ull, 150ull, 1000ull}) {
        for (double p : {0.3, 1e-2, 1e-4, 1e-6}) {
            double sum = 0.0;
            const std::uint64_t kMax = n < 6 ? n : 6;
            for (std::uint64_t k = 0; k <= kMax; ++k) {
                const double got = binomialPmf(n, p, k);
                const double want = referencePmf(n, p, k);
                EXPECT_NEAR(got, want, want * 1e-10 + 1e-300)
                    << "n=" << n << " p=" << p << " k=" << k;
                sum += got;
            }
            // Low-order terms carry essentially all the mass in
            // the subthreshold regime.
            if (n * p < 0.1) {
                EXPECT_NEAR(sum, 1.0, 1e-6);
            }
        }
    }
}

TEST(BinomialPmf, EdgeCases)
{
    EXPECT_EQ(binomialPmf(10, 0.0, 0), 1.0);
    EXPECT_EQ(binomialPmf(10, 0.0, 1), 0.0);
    EXPECT_EQ(binomialPmf(10, 1.0, 10), 1.0);
    EXPECT_EQ(binomialPmf(10, 1.0, 9), 0.0);
    EXPECT_EQ(binomialPmf(3, 0.5, 4), 0.0);
}

TEST(BinomialDraws, MatchTheirMeanAndVarianceAcrossRegimes)
{
    // Both samplers of the naive estimator, including where
    // (1 - p)^n underflows (drawBinomial splits n; the table starts
    // at the mode) and where p > 1/2 (drawBinomial takes the
    // complement).
    struct Case
    {
        std::uint64_t n;
        double p;
    };
    for (const Case c : {Case{4096, 1e-3}, Case{4096, 0.3},
                         Case{4096, 0.9}, Case{7, 0.5},
                         Case{16384, 0.05}}) {
        Rng rng(42);
        const BinomialTable table(c.n, c.p);
        const int draws = 20000;
        double sum[2] = {0, 0}, squares[2] = {0, 0};
        for (int i = 0; i < draws; ++i) {
            const double x[2] = {
                static_cast<double>(drawBinomial(rng, c.n, c.p)),
                static_cast<double>(table.draw(rng))};
            for (int k = 0; k < 2; ++k) {
                sum[k] += x[k];
                squares[k] += x[k] * x[k];
            }
        }
        const double mean = static_cast<double>(c.n) * c.p;
        const double var = mean * (1 - c.p);
        for (int k = 0; k < 2; ++k) {
            const char *what = k ? "table" : "drawBinomial";
            const double m = sum[k] / draws;
            EXPECT_NEAR(m, mean, 5 * std::sqrt(var / draws))
                << what << " n=" << c.n << " p=" << c.p;
            // The variance estimate's standard error is ~1%.
            EXPECT_NEAR(squares[k] / draws - m * m, var, 0.1 * var)
                << what << " n=" << c.n << " p=" << c.p;
        }
    }
    Rng rng(1);
    EXPECT_EQ(drawBinomial(rng, 10, 0.0), 0u);
    EXPECT_EQ(drawBinomial(rng, 10, 1.0), 10u);
    EXPECT_EQ(drawBinomial(rng, 0, 0.5), 0u);
    EXPECT_EQ(BinomialTable(10, 1.0).draw(rng), 10u);
    EXPECT_EQ(BinomialTable(10, 0.0).draw(rng), 0u);
}

/** One prep circuit: a zero-prep strategy, or the pi/8 conversion
 *  of a verified-and-corrected zero. */
struct PrepCircuit
{
    ZeroPrepStrategy strategy;
    bool pi8;
};

constexpr PrepCircuit kCircuits[] = {
    {ZeroPrepStrategy::Basic, false},
    {ZeroPrepStrategy::VerifyOnly, false},
    {ZeroPrepStrategy::CorrectOnly, false},
    {ZeroPrepStrategy::VerifyAndCorrect, false},
    {ZeroPrepStrategy::VerifyAndCorrect, true},
};

struct Sites
{
    std::uint64_t gate, move;
};

/** The scalar oracle's dry-run site counts. */
Sites
oracleSites(const MovementModel &movement,
            CorrectionSemantics semantics, ZeroPrepStrategy strategy,
            bool pi8)
{
    AncillaPrepSimulator sim(ErrorParams{}, movement, /*seed=*/0,
                             semantics);
    sim.faultSchedule().dryRun = true;
    if (pi8)
        sim.simulatePi8Once();
    else
        sim.simulateOnce(strategy);
    return {sim.faultSchedule().gate.seen,
            sim.faultSchedule().move.seen};
}

StratifiedEstimate
stratified(BatchAncillaSim &sim, ZeroPrepStrategy strategy, bool pi8,
           const ImportanceConfig &config)
{
    return pi8 ? sim.estimateStratifiedPi8(config)
               : sim.estimateStratified(strategy, config);
}

TEST(StratifiedPrepSampler, SiteCountsMatchNominalBasicCircuit)
{
    // The basic encode is 7 preps + the encoder's H and CX gates;
    // movement charges only on the CX gates under the default
    // MovementModel. The dry run must count exactly those sites.
    ErrorParams errors;
    errors.pGate = 1e-3;
    errors.pMove = 1e-5;
    const MovementModel movement{};
    BatchAncillaSim sampler(errors, movement, 1,
                            CorrectionSemantics::DiscardOnSyndrome);
    ImportanceConfig config;
    config.maxFaults = 1;
    config.trialsPerStratum = 10;
    const StratifiedEstimate est =
        sampler.estimateStratified(ZeroPrepStrategy::Basic, config);

    std::uint64_t cxs = 0;
    for (const auto &cx : SteaneCode::encoderCxs) {
        (void)cx;
        ++cxs;
    }
    std::uint64_t hs = 0;
    for (int seed : SteaneCode::encoderSeeds) {
        (void)seed;
        ++hs;
    }
    const std::uint64_t gates =
        static_cast<std::uint64_t>(SteaneCode::numPhysical) + hs
        + cxs;
    const std::uint64_t moves = cxs
        * static_cast<std::uint64_t>(movement.movesPerCx
                                     + movement.turnsPerCx);
    EXPECT_EQ(est.gateSites, gates);
    EXPECT_EQ(est.moveSites, moves);

    // Every circuit's batch probe counts what the scalar oracle's
    // dry run counts (maxFaults 0 runs no trials).
    config.maxFaults = 0;
    for (const MovementModel &model :
         {MovementModel{}, kFig11Movement}) {
        for (auto semantics : {CorrectionSemantics::DiscardOnSyndrome,
                               CorrectionSemantics::ApplyFix}) {
            BatchAncillaSim sim(errors, model, 1, semantics);
            for (const PrepCircuit &c : kCircuits) {
                SCOPED_TRACE(
                    std::string(zeroPrepStrategyName(c.strategy))
                    + (c.pi8 ? ", pi/8" : "")
                    + (semantics == CorrectionSemantics::ApplyFix
                           ? ", apply-fix"
                           : ", discard")
                    + ", movesPerCx "
                    + std::to_string(model.movesPerCx));
                const StratifiedEstimate batch =
                    stratified(sim, c.strategy, c.pi8, config);
                const Sites want =
                    oracleSites(model, semantics, c.strategy, c.pi8);
                EXPECT_EQ(batch.gateSites, want.gate);
                EXPECT_EQ(batch.moveSites, want.move);
            }
        }
    }
}

TEST(StratifiedPrepSampler, StrataMatchScalarOracle)
{
    // Each stratum's conditional failure rate on the batch engine
    // (per-trial fault subsets drawn up front, placed by event index
    // into the class sites each trial visits) against the scalar
    // oracle's online r-of-m schedule: the check that every trial
    // gets exactly its planned faults. The MonteCarloStreams noise point, where strata fail
    // often enough to tell.
    ErrorParams errors;
    errors.pGate = 2e-3;
    errors.pMove = 1e-4;
    const MovementModel movement{};
    ImportanceConfig config;
    config.maxFaults = 2;
    config.trialsPerStratum = 20000;
    const std::uint64_t oracleTrials = 4000;
    for (auto semantics : {CorrectionSemantics::DiscardOnSyndrome,
                           CorrectionSemantics::ApplyFix}) {
        for (bool pi8 : {false, true}) {
            BatchAncillaSim sim(errors, movement, 0x57a7, semantics);
            const StratifiedEstimate batch = stratified(
                sim, ZeroPrepStrategy::VerifyAndCorrect, pi8, config);
            for (const StratumEstimate &s : batch.strata) {
                if (s.analytic)
                    continue;
                AncillaPrepSimulator oracle(errors, movement, 0x0ac1e,
                                            semantics);
                scalar::FaultSchedule &schedule =
                    oracle.faultSchedule();
                schedule.gate.sites = batch.gateSites;
                schedule.gate.faults =
                    static_cast<std::uint64_t>(s.gateFaults);
                schedule.move.sites = batch.moveSites;
                schedule.move.faults =
                    static_cast<std::uint64_t>(s.moveFaults);
                const PrepEstimate want = pi8
                    ? oracle.estimateScalarPi8(oracleTrials)
                    : oracle.estimateScalar(
                          ZeroPrepStrategy::VerifyAndCorrect,
                          oracleTrials);
                const Interval got = s.interval();
                const Interval ref = want.errorInterval();
                EXPECT_TRUE(overlap(got, ref))
                    << (pi8 ? "pi/8" : "VAC")
                    << (semantics == CorrectionSemantics::ApplyFix
                            ? " apply-fix"
                            : " discard")
                    << " stratum (" << s.gateFaults << ","
                    << s.moveFaults << "): batch " << s.failures << "/"
                    << s.trials << " [" << got.lo << ", " << got.hi
                    << "], oracle " << want.failures << "/"
                    << want.trials << " [" << ref.lo << ", " << ref.hi
                    << "]";
            }
        }
    }
}

TEST(StratifiedPrepSampler, ZeroFaultStratumIsAnalyticZero)
{
    ErrorParams errors;
    errors.pGate = 1e-3;
    errors.pMove = 1e-5;
    BatchAncillaSim sampler(errors, MovementModel{}, 2,
                            CorrectionSemantics::DiscardOnSyndrome);
    ImportanceConfig config;
    config.trialsPerStratum = 2000;
    const StratifiedEstimate est =
        sampler.estimateStratified(ZeroPrepStrategy::Basic, config);
    ASSERT_FALSE(est.strata.empty());
    const StratumEstimate &zero = est.strata.front();
    EXPECT_EQ(zero.gateFaults, 0);
    EXPECT_EQ(zero.moveFaults, 0);
    EXPECT_TRUE(zero.analytic);
    EXPECT_EQ(zero.trials, 0u);
    EXPECT_EQ(zero.rate(), 0.0);
    // Its prior still participates in the weighting (it is the
    // bulk of the mass at subthreshold noise).
    EXPECT_GT(zero.prior, 0.5);
}

TEST(StratifiedPrepSampler, TruncationIsConservative)
{
    ErrorParams errors;
    errors.pGate = 1e-3;
    errors.pMove = 1e-5;
    BatchAncillaSim sampler(errors, MovementModel{}, 3,
                            CorrectionSemantics::DiscardOnSyndrome);
    // maxFaults = 0 keeps only the analytic stratum: the point
    // estimate is 0 but the whole non-(0,0) mass lands in the
    // upper confidence bound.
    ImportanceConfig config;
    config.maxFaults = 0;
    const StratifiedEstimate est =
        sampler.estimateStratified(ZeroPrepStrategy::Basic, config);
    EXPECT_EQ(est.strata.size(), 1u);
    EXPECT_EQ(est.errorRate(), 0.0);
    const Interval ci = est.errorInterval();
    EXPECT_EQ(ci.lo, 0.0);
    EXPECT_NEAR(ci.hi, est.truncatedPrior, 1e-15);
    EXPECT_GT(est.truncatedPrior, 0.0);
    EXPECT_LT(est.truncatedPrior, 0.5);
}

TEST(StratifiedPrepSampler, MatchesNaiveMonteCarloAtFeasiblePoint)
{
    // At pGate = 1e-3 naive MC resolves the basic-prep failure
    // rate easily, so the two estimators must agree. This is the
    // sampler's correctness anchor: the same decomposition then
    // extends to depths naive MC cannot reach.
    ErrorParams errors;
    errors.pGate = 1e-3;
    errors.pMove = 1e-5;
    for (auto semantics :
         {CorrectionSemantics::DiscardOnSyndrome,
          CorrectionSemantics::ApplyFix}) {
        BatchAncillaSim naiveSim(errors, MovementModel{}, 0xfea,
                                 semantics);
        const PrepEstimate naive =
            naiveSim.estimate(ZeroPrepStrategy::Basic, 4000000);

        BatchAncillaSim stratSim(errors, MovementModel{}, 0xfeb,
                                 semantics);
        ImportanceConfig config;
        config.trialsPerStratum = 40000;
        const StratifiedEstimate strat =
            stratSim.estimateStratified(ZeroPrepStrategy::Basic,
                                        config);
        EXPECT_TRUE(overlap(naive.errorInterval(),
                            strat.errorInterval()))
            << "naive [" << naive.errorInterval().lo << ", "
            << naive.errorInterval().hi << "] stratified ["
            << strat.errorInterval().lo << ", "
            << strat.errorInterval().hi << "]";
    }
}

TEST(StratifiedPrepSampler, Pi8MatchesNaiveMonteCarlo)
{
    ErrorParams errors;
    errors.pGate = 1e-3;
    errors.pMove = 1e-5;
    BatchAncillaSim naiveSim(errors, MovementModel{}, 0x8a,
                             CorrectionSemantics::ApplyFix);
    const PrepEstimate naive = naiveSim.estimatePi8(1500000);

    BatchAncillaSim stratSim(errors, MovementModel{}, 0x8b,
                             CorrectionSemantics::ApplyFix);
    ImportanceConfig config;
    config.trialsPerStratum = 40000;
    const StratifiedEstimate strat =
        stratSim.estimateStratifiedPi8(config);
    EXPECT_TRUE(
        overlap(naive.errorInterval(), strat.errorInterval()))
        << "naive [" << naive.errorInterval().lo << ", "
        << naive.errorInterval().hi << "] stratified ["
        << strat.errorInterval().lo << ", "
        << strat.errorInterval().hi << "]";
}

TEST(StratifiedPrepSampler, DeterministicAcrossThreadCounts)
{
    ErrorParams errors;
    errors.pGate = 1e-4;
    errors.pMove = 1e-6;
    ImportanceConfig config;
    config.trialsPerStratum = 5000;
    // 0 = every core, the same rule as BatchAncillaSim's batches.
    StratifiedEstimate results[3];
    const int threads[3] = {1, 4, 0};
    for (int i = 0; i < 3; ++i) {
        BatchSimConfig batch;
        batch.threads = threads[i];
        BatchAncillaSim sampler(errors, MovementModel{}, 0xd00d,
                                CorrectionSemantics::DiscardOnSyndrome,
                                batch);
        results[i] = sampler.estimateStratified(
            ZeroPrepStrategy::VerifyAndCorrect, config);
    }
    for (int r = 1; r < 3; ++r) {
        ASSERT_EQ(results[0].strata.size(), results[r].strata.size());
        for (std::size_t i = 0; i < results[0].strata.size(); ++i) {
            EXPECT_EQ(results[0].strata[i].failures,
                      results[r].strata[i].failures)
                << "stratum " << i << ", threads " << threads[r];
            EXPECT_EQ(results[0].strata[i].prior,
                      results[r].strata[i].prior);
        }
        EXPECT_EQ(results[0].errorRate(), results[r].errorRate());
        EXPECT_EQ(results[0].totalTrials, results[r].totalTrials);
    }
}

TEST(StratifiedPrepSampler, DeepPointGetsTightNonzeroInterval)
{
    // The whole point of the sampler: at pGate = 1e-5 the
    // verify-and-correct failure rate is ~1e-9 territory — naive
    // MC at any affordable trial count sees zero failures, while
    // the stratified estimate resolves a finite, tightly bounded
    // rate from a few hundred thousand trials.
    ErrorParams errors;
    errors.pGate = 1e-5;
    errors.pMove = 1e-7;
    BatchAncillaSim sim(errors, MovementModel{}, 0xdeed,
                        CorrectionSemantics::DiscardOnSyndrome);
    ImportanceConfig config;
    config.trialsPerStratum = 20000;
    const StratifiedEstimate est = sim.estimateStratified(
        ZeroPrepStrategy::VerifyAndCorrect, config);
    const Interval ci = est.errorInterval();
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_LT(ci.hi, 1e-6);
    // The truncated tail is negligible against the interval.
    EXPECT_LT(est.truncatedPrior, 1e-12);
}

} // namespace
} // namespace qc
