/**
 * @file
 * Fixed-fault-count importance sampling for deep-subthreshold
 * preparation error rates (Bravyi & Vargo-style subset sampling),
 * and the binomial draws of the naive estimator, which cuts the
 * same decomposition at "no fault" versus "at least one"
 * (error/BatchAncillaSim.hh).
 *
 * Naive Monte Carlo at a failure rate f needs ~100/f trials for a
 * tight CI — hopeless at the apply-fix 4.5e-6 point and impossible
 * at projected level-2 rates (~1e-12). This sampler instead
 * stratifies trials by the number of injected faults per class:
 *
 *   1. A noiseless probe, with the pi/8 fix-up coin off, counts
 *      the nominal path's fault sites per class: N_g gate sites
 *      (prep/1q/2q/measurement at pGate) and N_m movement sites
 *      (at pMove). Faults only ever add work (verify retries,
 *      correction recycles, extra extraction rounds), so every
 *      realized path visits at least N_g / N_m sites of each class.
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
 *      dedicated trials that place *exactly* a gate and b movement
 *      faults among those first sites: each trial's faulting sites
 *      are a uniformly random a-subset of its first N_g gate sites
 *      and b-subset of its first N_m movement sites, drawn before
 *      the trial runs. Sites beyond the first N_c (only reachable
 *      when a fault already fired) sample at the natural rate.
 *      BatchAncillaSim::estimateStratified runs the strata on the
 *      batch engine (error/BatchEngine.hh, FaultPlan).
 *      The (0, 0) stratum is analytic. A zero prep with zero faults
 *      on its nominal path cannot fail, f_00 = 0. A pi/8 trial
 *      can: with the fix-up coin on (one half) it runs 7 gate
 *      sites past N_g at the natural rate, and f_00 is one half
 *      times the chance that their faults leave a logical error,
 *      summed exactly over their Pauli patterns.
 *
 * The combined estimate weighs per-stratum Wilson intervals by the
 * binomial priors; the truncated tail mass (strata beyond
 * maxFaults) is added to the upper bound, so the interval is
 * conservative. Priors use iterative pmf recurrences (no lgamma /
 * pow), keeping results bit-identical across platforms. The win is
 * statistical: variance concentrates in strata that actually fail,
 * giving deep-subthreshold points tight CIs at fixed cost.
 */

#ifndef QC_ERROR_IMPORTANCE_SAMPLER_HH
#define QC_ERROR_IMPORTANCE_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/Params.hh"
#include "common/Rng.hh"
#include "common/Stats.hh"

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
    bool analytic = false; ///< (0,0): f known exactly, no trials
    double exactRate = 0.0; ///< the analytic stratum's f_ab

    /** Conditional failure rate estimate f_ab. */
    double rate() const;

    /** 95% Wilson interval on f_ab (zero width for the analytic
     *  stratum). */
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
 * Binomial pmf P(K = k | n, p) by iterative recurrence (no
 * transcendentals beyond +-*-/ — bit-identical across platforms).
 */
double binomialPmf(std::uint64_t n, double p, std::uint64_t k);

/**
 * One Binomial(n, p) draw by inversion of one uniform per draw,
 * walking the pmf up from (1 - p)^n (taken by squaring; +-*-/
 * only). Cost O(1 + n min(p, 1 - p)): meant for small means, as in
 * the batch engine's first-fault counts. A p above 1/2 draws the
 * complement, and an n whose (1 - p)^n would underflow is split in
 * halves.
 */
std::uint64_t drawBinomial(Rng &rng, std::uint64_t n, double p);

/**
 * Binomial(n, p) by inversion over a table of its pmf: one table
 * per (n, p), then O(log n) per draw. The table is built outward
 * from the mode with +-*-/ only, because the from-zero recurrence
 * of binomialPmf underflows once (1 - p)^n does (at n = 4096 for p
 * above about 0.16). Terms below 2^-64 of the mode's are dropped:
 * their mass is far under a uniform's 53-bit resolution.
 */
class BinomialTable
{
  public:
    BinomialTable(std::uint64_t n, double p);

    std::uint64_t draw(Rng &rng) const;

  private:
    std::uint64_t lo_ = 0;    ///< the table's least outcome
    std::vector<double> cdf_; ///< P(K <= lo_ + i)
};

/**
 * The strata of a circuit with `gateSites` / `moveSites` nominal-path
 * sites, in enumeration order (a ascending, then b), with their
 * binomial priors and the truncated prior mass; no trials yet.
 * Throws std::invalid_argument on a negative maxFaults.
 */
StratifiedEstimate stratify(std::uint64_t gateSites,
                            std::uint64_t moveSites,
                            const ErrorParams &errors,
                            const ImportanceConfig &config);

} // namespace qc

#endif // QC_ERROR_IMPORTANCE_SAMPLER_HH
