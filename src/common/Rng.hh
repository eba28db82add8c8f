/**
 * @file
 * Deterministic pseudo-random number generation for Monte Carlo
 * simulation. We use xoshiro256** seeded via SplitMix64: fast,
 * high-quality, and fully reproducible across platforms (unlike
 * std::mt19937_64 + std::uniform_real_distribution, whose output is
 * implementation-defined for some distributions).
 */

#ifndef QC_COMMON_RNG_HH
#define QC_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace qc {

/**
 * xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Satisfies UniformRandomBitGenerator so it can also be handed to
 * standard-library facilities where cross-platform reproducibility
 * does not matter.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // SplitMix64 step.
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit output. */
    std::uint64_t
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform01()
    {
        // 53 high-quality bits -> [0,1) with full double resolution.
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial: true with probability p. */
    bool
    bernoulli(double p)
    {
        return uniform01() < p;
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        // Lemire's nearly-divisionless bounded sampling, with the
        // simple rejection fix-up for exactness.
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < n) {
            const std::uint64_t threshold = (0 - n) % n;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * n;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Derive an independent child stream (for parallel replicas). */
    Rng
    split()
    {
        return Rng((*this)() ^ 0xd2b74407b1ce6e93ull);
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t v, int k)
    {
        return (v << k) | (v >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Persistent rare-event Bernoulli(p) bit stream with O(1) skip over
 * hit-free windows.
 *
 * The one fault sampler of the batch engine. It models the bit
 * stream as a geometric renewal process and carries the gap to the
 * next set bit *across* words: advancing over a window of W words
 * with no hits costs a single compare-and-subtract and zero RNG
 * draws. Expected RNG cost is exactly one uniform draw
 * per set bit (plus one at reset), so for physical error rates like
 * 1e-4 an injection site costs ~p * 64 * words draws instead of
 * `words` draws — the dominant win behind the batch engine's SIMD
 * throughput target.
 *
 * The output distribution is exactly i.i.d. Bernoulli(p) per bit,
 * and — critically for the cross-width bit-identity guarantee — the
 * draw sequence is defined over the *bit stream*, independent of
 * how the caller blocks words into vector lanes.
 */
class RareBernoulliStream
{
  public:
    explicit RareBernoulliStream(double p = 0.0) : p_(p)
    {
        if (p <= 0.0)
            mode_ = Mode::Never;
        else if (p >= 1.0)
            mode_ = Mode::Always;
        else {
            mode_ = Mode::Rare;
            invDenom_ = 1.0 / std::log1p(-p);
        }
    }

    /** The per-bit probability this stream was built for. */
    double p() const { return p_; }

    /**
     * Restart the stream (e.g. at the top of a batch): draws the
     * position of the first set bit. Must be called before the
     * first window() with the same Rng that window() will use.
     */
    void
    reset(Rng &rng)
    {
        gap_ = mode_ == Mode::Rare ? gapFrom(rng) : 0;
    }

    /**
     * Advance the stream over the next `words` 64-bit words and
     * invoke visit(w, mask) for each word index in [0, words) whose
     * mask has at least one set bit. Words with no hits are skipped
     * entirely (no callback, no RNG). Gap draws for a word complete
     * before its visit runs, so interleaving other draws (e.g.
     * Pauli-kind selection) inside visit keeps the combined stream
     * deterministic.
     */
    template <class F>
    void
    window(Rng &rng, int words, F &&visit)
    {
        if (mode_ == Mode::Never)
            return;
        const std::uint64_t bits = 64ull * static_cast<unsigned>(words);
        if (mode_ == Mode::Always) {
            for (int w = 0; w < words; ++w)
                visit(w, ~std::uint64_t{0});
            return;
        }
        while (gap_ < bits) {
            const int w = static_cast<int>(gap_ >> 6);
            const std::uint64_t base = std::uint64_t(w) << 6;
            std::uint64_t mask = 0;
            do {
                mask |= std::uint64_t{1} << (gap_ - base);
                gap_ += 1 + gapFrom(rng);
            } while (gap_ < base + 64);
            visit(w, mask);
        }
        gap_ -= bits;
    }

  private:
    enum class Mode
    {
        Never,
        Rare,
        Always,
    };

    std::uint64_t
    gapFrom(Rng &rng)
    {
        // Geometric(p) via inversion; clamp the (astronomically
        // rare for any representable u) overflow case instead of
        // invoking double->int UB.
        const double g =
            std::floor(std::log1p(-rng.uniform01()) * invDenom_);
        if (!(g < 9.0e18))
            return std::uint64_t{1} << 62;
        return static_cast<std::uint64_t>(g);
    }

    double p_ = 0.0;
    double invDenom_ = 0.0;
    Mode mode_ = Mode::Never;
    std::uint64_t gap_ = 0;
};

} // namespace qc

#endif // QC_COMMON_RNG_HH
