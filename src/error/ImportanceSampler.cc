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
    if (analytic)
        return exactRate;
    if (trials == 0)
        return 0.0;
    return static_cast<double>(failures)
        / static_cast<double>(trials);
}

Interval
StratumEstimate::interval() const
{
    if (analytic)
        return {exactRate, exactRate};
    if (trials == 0)
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

std::uint64_t
drawBinomial(Rng &rng, std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    if (p > 0.5)
        return n - drawBinomial(rng, n, 1.0 - p); // 1 - p is exact
    double pmf = 1.0;
    double base = 1.0 - p;
    for (std::uint64_t e = n; e; e >>= 1) {
        if (e & 1)
            pmf *= base;
        base *= base;
    }
    if (pmf < 1e-200) {
        const std::uint64_t half = n / 2;
        return drawBinomial(rng, half, p)
            + drawBinomial(rng, n - half, p);
    }
    double u = rng.uniform01();
    const double ratio = p / (1.0 - p);
    std::uint64_t k = 0;
    while (u >= pmf && k < n) {
        u -= pmf;
        pmf *= ratio * static_cast<double>(n - k)
            / static_cast<double>(k + 1);
        ++k;
    }
    return k;
}

BinomialTable::BinomialTable(std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0 || p >= 1.0) {
        lo_ = p >= 1.0 ? n : 0;
        cdf_ = {1.0};
        return;
    }
    constexpr double kNegligible = 0x1p-64;
    const auto mode = std::min<std::uint64_t>(
        n, static_cast<std::uint64_t>(static_cast<double>(n + 1) * p));
    // pmf(i) / pmf(mode), down from and up from the mode.
    std::vector<double> below;
    double t = 1.0;
    for (std::uint64_t i = mode; i > 0; --i) {
        t *= static_cast<double>(i) / static_cast<double>(n - i + 1)
            * ((1.0 - p) / p);
        if (t < kNegligible)
            break;
        below.push_back(t);
    }
    std::vector<double> above;
    t = 1.0;
    for (std::uint64_t i = mode; i < n; ++i) {
        t *= static_cast<double>(n - i) / static_cast<double>(i + 1)
            * (p / (1.0 - p));
        if (t < kNegligible)
            break;
        above.push_back(t);
    }
    lo_ = mode - below.size();
    double sum = 0.0;
    for (auto it = below.rbegin(); it != below.rend(); ++it)
        cdf_.push_back(sum += *it);
    cdf_.push_back(sum += 1.0);
    for (double v : above)
        cdf_.push_back(sum += v);
    for (double &c : cdf_)
        c /= sum;
    cdf_.back() = 1.0;
}

std::uint64_t
BinomialTable::draw(Rng &rng) const
{
    const auto it =
        std::upper_bound(cdf_.begin(), cdf_.end() - 1, rng.uniform01());
    return lo_ + static_cast<std::uint64_t>(it - cdf_.begin());
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
