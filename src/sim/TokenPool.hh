/**
 * @file
 * Resource pools modeling ancilla production for the event-driven
 * runs. Both pools answer the same question: "if I claim n tokens
 * now, when are they all available?" — with first-come-first-served
 * allocation and unbounded buffering of tokens produced ahead of
 * demand.
 */

#ifndef QC_SIM_TOKEN_POOL_HH
#define QC_SIM_TOKEN_POOL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/Logging.hh"
#include "common/Types.hh"

namespace qc {

/**
 * Tokens produced at a steady aggregate rate (a farm of pipelined
 * factories, or Figure 8's "steady throughput" abstraction). The
 * k-th token ever produced becomes available at
 *     startup + k / rate.
 */
class RateTokenPool
{
  public:
    /**
     * @param per_ms   production rate (tokens per millisecond); a
     *                 non-positive rate means "infinite" (tokens
     *                 always available)
     * @param startup  pipeline fill latency before the first token
     */
    explicit RateTokenPool(BandwidthPerMs per_ms, Time startup = 0)
        : ratePerMs_(per_ms), startup_(startup)
    {
    }

    /**
     * Claim `count` tokens. Returns the earliest time all of them
     * exist (claims are FCFS in call order).
     */
    Time
    claim(int count)
    {
        if (count <= 0)
            return 0;
        if (ratePerMs_ <= 0)
            return 0; // unbounded production
        issued_ += static_cast<std::uint64_t>(count);
        const double ms =
            static_cast<double>(issued_) / ratePerMs_;
        return startup_
            + static_cast<Time>(ms * static_cast<double>(nsPerMs));
    }

    /** Total tokens claimed so far. */
    std::uint64_t issued() const { return issued_; }

  private:
    BandwidthPerMs ratePerMs_;
    Time startup_;
    std::uint64_t issued_ = 0;
};

/**
 * Tokens produced by a small bank of producers with *bounded*
 * buffering: each producer holds at most one finished token (the
 * cell has storage for a single spare encoded ancilla). This is the
 * QLA/CQLA-style dedicated generator the paper contrasts with
 * shared factories: when its data qubit is idle the generator's
 * capacity is wasted, because it cannot stockpile or serve anyone
 * else (Section 5.1: "imbalances in encoded ancilla need cause some
 * generators to go idle while others cannot meet need").
 *
 * Claims must be issued in nondecreasing `now` order (guaranteed by
 * the event-driven executor).
 */
class OnDemandBankPool
{
  public:
    OnDemandBankPool(int producers, Time period)
        : period_(period),
          freeAt_(static_cast<std::size_t>(producers), -period)
    {
        if (producers <= 0 || period <= 0)
            panic("OnDemandBankPool: bad parameters");
    }

    /**
     * Claim `count` tokens at simulated time `now`. Each token is
     * served by the earliest-free producer: ready at
     * max(now, freeAt + period) — i.e. a producer that has been
     * idle for at least one period has one token buffered.
     */
    Time
    claim(int count, Time now)
    {
        Time ready_all = now;
        for (int i = 0; i < count; ++i) {
            // Earliest-free producer.
            std::size_t best = 0;
            for (std::size_t p = 1; p < freeAt_.size(); ++p) {
                if (freeAt_[p] < freeAt_[best])
                    best = p;
            }
            const Time ready =
                std::max(now, freeAt_[best] + period_);
            freeAt_[best] = ready;
            if (ready > ready_all)
                ready_all = ready;
        }
        issued_ += static_cast<std::uint64_t>(count);
        return ready_all;
    }

    /** Total tokens claimed so far. */
    std::uint64_t issued() const { return issued_; }

  private:
    Time period_;
    std::vector<Time> freeAt_;
    std::uint64_t issued_ = 0;
};

} // namespace qc

#endif // QC_SIM_TOKEN_POOL_HH
