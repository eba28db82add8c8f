#include "error/ImportanceSampler.hh"

#include <algorithm>
#include <stdexcept>

namespace qc {

namespace {

/**
 * Strata whose prior falls below this are skipped, their mass
 * folded into the truncation tail (still conservative: the tail is
 * added to the upper confidence bound).
 */
constexpr double kMinStratumPrior = 1e-18;

} // namespace

double
StratumEstimate::rate() const
{
    if (analytic || trials == 0)
        return 0.0;
    return static_cast<double>(failures)
        / static_cast<double>(trials);
}

Interval
StratumEstimate::interval() const
{
    if (analytic || trials == 0)
        return {0.0, 0.0};
    return wilsonInterval(failures, trials);
}

double
StratifiedEstimate::errorRate() const
{
    double f = 0.0;
    for (const StratumEstimate &s : strata)
        f += s.prior * s.rate();
    return f;
}

Interval
StratifiedEstimate::errorInterval() const
{
    Interval ci{0.0, 0.0};
    for (const StratumEstimate &s : strata) {
        const Interval si = s.interval();
        ci.lo += s.prior * si.lo;
        ci.hi += s.prior * si.hi;
    }
    ci.hi = std::min(1.0, ci.hi + truncatedPrior);
    return ci;
}

double
binomialPmf(std::uint64_t n, double p, std::uint64_t k)
{
    if (k > n)
        return 0.0;
    if (p <= 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p >= 1.0)
        return k == n ? 1.0 : 0.0;
    // pmf(0) = (1-p)^n by repeated multiplication, then the ratio
    // recurrence pmf(j+1) = pmf(j) * (n-j)/(j+1) * p/(1-p). Only
    // +-*-/ so the result is bit-identical across platforms; for
    // the subthreshold regime (n*p << 1) pmf(0) is ~1 and the
    // recurrence loses nothing to underflow where it matters.
    double pmf = 1.0;
    for (std::uint64_t i = 0; i < n; ++i)
        pmf *= 1.0 - p;
    const double ratio = p / (1.0 - p);
    for (std::uint64_t j = 0; j < k; ++j)
        pmf *= ratio * static_cast<double>(n - j)
            / static_cast<double>(j + 1);
    return pmf;
}

StratifiedEstimate
stratify(std::uint64_t gateSites, std::uint64_t moveSites,
         const ErrorParams &errors, const ImportanceConfig &config)
{
    if (config.maxFaults < 0)
        throw std::invalid_argument(
            "ImportanceConfig.maxFaults must be >= 0");

    StratifiedEstimate out;
    out.gateSites = gateSites;
    out.moveSites = moveSites;

    // Enumerate strata (a, b), a + b <= maxFaults, with their
    // binomial priors; (0,0) is analytic. Total prior mass not
    // covered (beyond the truncation order, above the per-class
    // site count, or skipped as negligible) is the truncation tail.
    double covered = 0.0;
    for (int a = 0; a <= config.maxFaults; ++a) {
        if (static_cast<std::uint64_t>(a) > out.gateSites)
            break;
        const double pa =
            binomialPmf(out.gateSites, errors.pGate,
                        static_cast<std::uint64_t>(a));
        for (int b = 0; a + b <= config.maxFaults; ++b) {
            if (static_cast<std::uint64_t>(b) > out.moveSites)
                break;
            const double prior = pa
                * binomialPmf(out.moveSites, errors.pMove,
                              static_cast<std::uint64_t>(b));
            if (a + b > 0 && prior < kMinStratumPrior)
                continue;
            StratumEstimate s;
            s.gateFaults = a;
            s.moveFaults = b;
            s.prior = prior;
            s.analytic = a == 0 && b == 0;
            covered += prior;
            out.strata.push_back(s);
        }
    }
    out.truncatedPrior = std::max(0.0, 1.0 - covered);
    return out;
}

} // namespace qc
