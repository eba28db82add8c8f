#include "Stats.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace qc {

Interval
wilsonInterval(std::uint64_t successes, std::uint64_t trials, double z)
{
    assert(trials > 0 && successes <= trials);
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

TimeSeriesBinner::TimeSeriesBinner(double span, std::size_t bins)
    : span_(span), width_(span / static_cast<double>(bins)), bins_(bins, 0.0)
{
    // Checked in every build: with no bins, add() and addRange()
    // would index an empty vector.
    if (bins == 0 || !(span > 0.0)) {
        throw std::invalid_argument(
            "TimeSeriesBinner needs bins > 0 and span > 0 (got bins "
            + std::to_string(bins) + ", span " + std::to_string(span)
            + ")");
    }
}

void
TimeSeriesBinner::add(double t, double weight)
{
    auto idx = static_cast<std::ptrdiff_t>(t / width_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(bins_.size()) - 1);
    bins_[static_cast<std::size_t>(idx)] += weight;
}

void
TimeSeriesBinner::addRange(double t0, double t1, double weight)
{
    if (t1 <= t0) {
        add(t0, weight);
        return;
    }
    const double density = weight / (t1 - t0);
    t0 = std::clamp(t0, 0.0, span_);
    t1 = std::clamp(t1, 0.0, span_);
    auto first = static_cast<std::size_t>(
        std::clamp(t0 / width_, 0.0,
                   static_cast<double>(bins_.size() - 1)));
    auto last = static_cast<std::size_t>(
        std::clamp(t1 / width_, 0.0,
                   static_cast<double>(bins_.size() - 1)));
    for (std::size_t i = first; i <= last; ++i) {
        const double lo = std::max(t0, static_cast<double>(i) * width_);
        const double hi =
            std::min(t1, static_cast<double>(i + 1) * width_);
        if (hi > lo)
            bins_[i] += density * (hi - lo);
    }
}

} // namespace qc
