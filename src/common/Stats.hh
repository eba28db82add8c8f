/**
 * @file
 * Small statistics helpers used by the Monte Carlo engine and the
 * speed-of-data analytics: binomial confidence intervals and
 * time-series accumulation for the Figure 7 demand profile.
 */

#ifndef QC_COMMON_STATS_HH
#define QC_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace qc {

/** A two-sided confidence interval. */
struct Interval
{
    double lo;
    double hi;

    /** True if x lies within [lo, hi]. */
    bool contains(double x) const { return lo <= x && x <= hi; }
};

/**
 * Wilson score interval for a binomial proportion.
 *
 * Robust for the small success counts that appear when estimating
 * rare logical-error rates (Figure 4 reproduces rates down to 2.9e-5).
 *
 * @param successes number of successes observed
 * @param trials    number of trials (> 0)
 * @param z         normal quantile (1.96 for 95%, 2.58 for 99%)
 */
Interval wilsonInterval(std::uint64_t successes, std::uint64_t trials,
                        double z = 1.96);

/**
 * Fixed-bin histogram over a [0, span) domain; used to bin ancilla
 * demand over time for the Figure 7 profile.
 */
class TimeSeriesBinner
{
  public:
    /**
     * @param span  total domain covered (> 0)
     * @param bins  number of equal-width bins (> 0)
     * @throws std::invalid_argument when either is not positive
     */
    TimeSeriesBinner(double span, std::size_t bins);

    /** Add weight at position t; out-of-range samples are clamped. */
    void add(double t, double weight = 1.0);

    /** Add weight uniformly over [t0, t1), split across bins. */
    void addRange(double t0, double t1, double weight = 1.0);

    /** Accumulated weight per bin. */
    const std::vector<double> &bins() const { return bins_; }

    /** Width of each bin. */
    double binWidth() const { return width_; }

  private:
    double span_;
    double width_;
    std::vector<double> bins_;
};

} // namespace qc

#endif // QC_COMMON_STATS_HH
