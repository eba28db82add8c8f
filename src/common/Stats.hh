/**
 * @file
 * Small statistics helpers used by the Monte Carlo engine and the
 * event-driven simulations: running moments, binomial confidence
 * intervals, and time-series accumulation for the figure benches.
 */

#ifndef QC_COMMON_STATS_HH
#define QC_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace qc {

/**
 * Single-pass running mean/variance/extrema (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added. */
    std::uint64_t count() const { return n_; }

    /** Sample mean (0 if empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 if fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample seen (0 if empty). */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest sample seen (0 if empty). */
    double max() const { return n_ ? max_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

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
 * demand over time for the Figure 7 bench.
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

    /** Center position of bin i. */
    double binCenter(std::size_t i) const;

    /** Width of each bin. */
    double binWidth() const { return width_; }

  private:
    double span_;
    double width_;
    std::vector<double> bins_;
};

} // namespace qc

#endif // QC_COMMON_STATS_HH
