/**
 * @file
 * Fixed-fault-count importance sampling for deep-subthreshold
 * preparation error rates (Bravyi & Vargo-style subset sampling).
 *
 * Naive Monte Carlo at a failure rate f needs ~100/f trials for a
 * tight CI — hopeless at the apply-fix 4.5e-6 point and impossible
 * at projected level-2 rates (~1e-12). This sampler instead
 * stratifies trials by the number of injected faults per class:
 *
 *   1. A noiseless dry run counts the nominal path's fault sites
 *      per class: N_g gate sites (prep/1q/2q/measurement at pGate)
 *      and N_m movement sites (at pMove). Faults only ever add
 *      work (verify retries, correction recycles, extra extraction
 *      rounds), so every realized path visits at least N_g / N_m
 *      sites of each class.
 *   2. The failure probability decomposes exactly over the joint
 *      count (A, B) of faults among the first N_g gate and first
 *      N_m movement sites realized:
 *
 *          f = sum_{a,b} P(A=a) P(B=b) f_{ab},
 *
 *      with A ~ Binomial(N_g, pGate) and B ~ Binomial(N_m, pMove)
 *      exactly (each realized site is a fresh independent
 *      Bernoulli, so the first-N indicators are i.i.d. even though
 *      sites are revealed adaptively).
 *   3. Each stratum (a, b) with a + b <= maxFaults is estimated by
 *      dedicated trials whose fault schedule plants *exactly* a
 *      gate and b movement faults among those first sites, via
 *      sequential conditional sampling: at a class-c site with r
 *      faults left to place among m remaining slots, fault with
 *      probability r/m (a uniformly random size-r subset, valid
 *      under adaptive revelation). Sites beyond the first N_c
 *      (only reachable when a fault already fired) sample at the
 *      natural rate.
 *      The (0, 0) stratum is analytic: zero faults on the nominal
 *      path cannot fail, f_00 = 0.
 *
 * The combined estimate weighs per-stratum Wilson intervals by the
 * binomial priors; the truncated tail mass (strata beyond
 * maxFaults) is added to the upper bound, so the interval is
 * conservative. Priors use iterative pmf recurrences (no lgamma /
 * pow), keeping results bit-identical across platforms.
 *
 * The sampler drives the *scalar* reference circuit under a
 * FaultSchedule (error/AncillaSim.hh), so its throughput is the
 * scalar engine's; its win is statistical: variance concentrates in
 * strata that actually fail, giving deep-subthreshold points tight
 * CIs at fixed cost.
 */

#ifndef QC_ERROR_IMPORTANCE_SAMPLER_HH
#define QC_ERROR_IMPORTANCE_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/Params.hh"
#include "common/Rng.hh"
#include "common/Stats.hh"
#include "error/AncillaSim.hh"

namespace qc {

/** Knobs for the stratified estimator. */
struct ImportanceConfig
{
    /** Truncation order: strata with a + b <= maxFaults are run. */
    int maxFaults = 4;

    /** Monte Carlo trials per (non-analytic) stratum. */
    std::uint64_t trialsPerStratum = 100000;
};

/** One (gateFaults, moveFaults) stratum's prior and tallies. */
struct StratumEstimate
{
    int gateFaults = 0;
    int moveFaults = 0;
    double prior = 0.0; ///< P(A=a) * P(B=b)
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;
    bool analytic = false; ///< (0,0): f == 0 exactly, no trials

    /** Conditional failure rate estimate f_ab. */
    double rate() const;

    /** 95% Wilson interval on f_ab ({0,0} for the analytic stratum). */
    Interval interval() const;
};

/** Combined stratified estimate. */
struct StratifiedEstimate
{
    std::vector<StratumEstimate> strata;
    std::uint64_t gateSites = 0; ///< nominal-path gate-class sites
    std::uint64_t moveSites = 0; ///< nominal-path movement sites
    double truncatedPrior = 0.0; ///< prior mass outside the strata
    std::uint64_t totalTrials = 0;

    /** Prior-weighted point estimate of the failure rate. */
    double errorRate() const;

    /**
     * Conservative 95% interval: prior-weighted per-stratum Wilson
     * bounds, with the truncated prior mass added to the upper
     * bound (its conditional failure rate is bounded by 1).
     */
    Interval errorInterval() const;
};

/**
 * Stratified rare-event estimator over the scalar preparation
 * circuits. Deterministic for a fixed (seeder, config): per-stratum
 * seeds are pre-split, so results are independent of `threads`
 * (0 = every core, common/ParallelFor.hh).
 */
class StratifiedPrepSampler
{
  public:
    StratifiedPrepSampler(ErrorParams errors, MovementModel movement,
                          Rng seeder, CorrectionSemantics semantics,
                          int threads = 1);

    /** Stratified estimate of a zero-prep strategy's failure rate. */
    StratifiedEstimate estimate(ZeroPrepStrategy strategy,
                                const ImportanceConfig &config);

    /** Stratified estimate of the pi/8 conversion failure rate. */
    StratifiedEstimate estimatePi8(const ImportanceConfig &config);

    /**
     * Binomial pmf P(K = k | n, p) by iterative recurrence (no
     * transcendentals beyond +-*-/ — bit-identical across
     * platforms). Exposed for the stratum-weight unit tests.
     */
    static double binomialPmf(std::uint64_t n, double p,
                              std::uint64_t k);

  private:
    StratifiedEstimate run(ZeroPrepStrategy strategy, bool pi8,
                           const ImportanceConfig &config);

    ErrorParams errors_;
    MovementModel movement_;
    CorrectionSemantics semantics_;
    Rng seeder_;
    int threads_;
};

} // namespace qc

#endif // QC_ERROR_IMPORTANCE_SAMPLER_HH
