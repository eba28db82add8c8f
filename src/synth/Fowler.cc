#include "synth/Fowler.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "common/Logging.hh"

namespace qc {

namespace {

/** Decomposition of T^a (a in [0,7]) over {T, S, Z, Sdg, Tdg}. */
const std::vector<GateKind> &
tPowerGates(int a)
{
    static const std::vector<GateKind> table[8] = {
        {},
        {GateKind::T},
        {GateKind::S},
        {GateKind::S, GateKind::T},
        {GateKind::Z},
        {GateKind::Z, GateKind::T},
        {GateKind::Sdg},
        {GateKind::Tdg},
    };
    return table[a];
}

/** Weighted cost of the decomposition of T^a. */
int
tPowerCost(int a, bool pure_ht, int t_weight)
{
    if (pure_ht)
        return a * t_weight;
    int cost = 0;
    for (GateKind g : tPowerGates(a)) {
        cost += (g == GateKind::T || g == GateKind::Tdg) ? t_weight
                                                         : 1;
    }
    return cost;
}

GateKind
inverseOf(GateKind kind)
{
    switch (kind) {
      case GateKind::T:   return GateKind::Tdg;
      case GateKind::Tdg: return GateKind::T;
      case GateKind::S:   return GateKind::Sdg;
      case GateKind::Sdg: return GateKind::S;
      case GateKind::H:   return GateKind::H;
      case GateKind::Z:   return GateKind::Z;
      case GateKind::X:   return GateKind::X;
      default:
        panic("inverseOf: unsupported gate in sequence");
    }
}

Su2
matrixOf(GateKind kind)
{
    switch (kind) {
      case GateKind::H:   return Su2::hGate();
      case GateKind::T:   return Su2::tGate();
      case GateKind::Tdg: return Su2::tdgGate();
      case GateKind::S:   return Su2::sGate();
      case GateKind::Sdg: return Su2::sdgGate();
      case GateKind::Z:   return Su2::zGate();
      case GateKind::X:   return Su2::xGate();
      default:
        panic("matrixOf: unsupported gate in sequence");
    }
}

/**
 * A canonical word's exponents a0, a1, ..., as packed 3 bits each
 * from the top: exponent i sits at bits [27 - 3i, 30 - 3i). Ordering
 * by (code, len) is lexicographic order with a prefix before its
 * extensions, which is the order the depth-first search visits
 * words in.
 */
struct Word
{
    static constexpr int slots = 10; // a0 plus at most 9 syllables

    std::uint32_t code = 0;
    int len = 0; // exponents held; 0 is "no word"

    int
    at(int i) const
    {
        return static_cast<int>(code >> (3 * (slots - 1 - i))) & 7;
    }

    Word
    then(int a) const
    {
        return {code | static_cast<std::uint32_t>(a)
                           << (3 * (slots - 1 - len)),
                len + 1};
    }

    Word
    then(Word tail) const
    {
        return {code | tail.code >> (3 * len), len + tail.len};
    }

    bool
    operator<(Word other) const
    {
        return code != other.code ? code < other.code : len < other.len;
    }
};

/** A word with the matrix the depth-first search computes for it. */
struct Node
{
    Su2 m;
    Word word;
};

using Quat = std::array<double, 4>;

/**
 * The unit quaternion of the SU(2) part of u, up to sign. For unitary
 * U and V, |tr(U^dag V)| / 2 = |<quat(U), quat(V)>|.
 */
Quat
quaternion(const Su2 &u)
{
    // u = e^{i phi} [[alpha, -conj(beta)], [beta, conj(alpha)]], so
    // w = e^{i phi} (Re alpha, Im alpha, Re beta, Im beta).
    using C = Su2::Cplx;
    const C a = u.at(0, 0), b = u.at(0, 1), c = u.at(1, 0),
            d = u.at(1, 1);
    const C w[4] = {(a + d) * 0.5, (a - d) * C(0.0, -0.5),
                    (c - b) * 0.5, (c + b) * C(0.0, -0.5)};
    int big = 0;
    for (int k = 1; k < 4; ++k) {
        if (std::abs(w[k]) > std::abs(w[big]))
            big = k;
    }
    const C unphase = std::conj(w[big]) / std::abs(w[big]);
    Quat q;
    double norm = 0.0;
    for (int k = 0; k < 4; ++k) {
        q[k] = (w[k] * unphase).real();
        norm += q[k] * q[k];
    }
    for (double &x : q)
        x /= std::sqrt(norm);
    return q;
}

double
dot(const Quat &x, const Quat &y)
{
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3];
}

/**
 * The depth-first search's choice for one tolerance, fed words in any
 * order: among words within tol the least (cost, error, word), else
 * the least (error, word) as the closest miss.
 */
struct Pick
{
    explicit Pick(double tolerance) : tol(tolerance) {}

    double tol;
    bool found = false;
    int cost = 0;
    double error = 2.0;
    Word word;

    /** False if no word of this cost can change the pick. */
    bool
    open(int c) const
    {
        return !found || c <= cost;
    }

    /**
     * A floor on |tr(W^dag target)| / 2 for every word W that can
     * change the pick: W lies within tol, or (nothing found yet)
     * within the closest miss. The 1e-12 slack covers the rounding
     * between a word's exact error and the half-word overlap the
     * filter computes (~1e-14); compare overlaps, never square-rooted
     * distances, which amplify rounding near 0.
     */
    double
    overlapFloor() const
    {
        const double r = found || tol > error ? tol : error;
        return 1.0 - r * r - 1e-12;
    }

    void
    consider(double err, int c, Word w)
    {
        const bool closer = err < error || (err == error && w < word);
        if (err <= tol) {
            if (!found || c < cost || (c == cost && closer)) {
                found = true;
                cost = c;
                error = err;
                word = w;
            }
        } else if (!found && closer) {
            cost = c;
            error = err;
            word = w;
        }
    }
};

ApproxSequence
wordToSequence(Word word, double error, bool pure_ht)
{
    ApproxSequence seq;
    seq.error = error;
    for (int i = 0; i < word.len; ++i) {
        if (i > 0)
            seq.gates.push_back(GateKind::H);
        const int a = word.at(i);
        if (pure_ht) {
            seq.gates.insert(seq.gates.end(), a, GateKind::T);
        } else {
            const auto &gates = tPowerGates(a);
            seq.gates.insert(seq.gates.end(), gates.begin(),
                             gates.end());
        }
    }
    return seq;
}

} // namespace

int
ApproxSequence::tCount() const
{
    return static_cast<int>(
        std::count_if(gates.begin(), gates.end(), [](GateKind g) {
            return g == GateKind::T || g == GateKind::Tdg;
        }));
}

Su2
ApproxSequence::unitary() const
{
    Su2 m = Su2::identity();
    for (GateKind g : gates)
        m = matrixOf(g) * m;
    return m;
}

ApproxSequence
ApproxSequence::inverted() const
{
    ApproxSequence inv;
    inv.error = error;
    inv.gates.reserve(gates.size());
    for (auto it = gates.rbegin(); it != gates.rend(); ++it)
        inv.gates.push_back(inverseOf(*it));
    return inv;
}

/**
 * Target-independent tables for one maxSyllables n, split at
 * h = n / 2 syllables. Every word of more than h syllables is
 * exactly one prefix followed by one suffix.
 */
struct FowlerSynth::HalfWords
{
    struct Prefix
    {
        std::uint32_t node; // index into shortWords
        Quat q;
    };

    struct Suffix
    {
        Su2 dagger;  // inverse of the syllables' product
        Word word;   // exponents a1..am from the top slot
    };

    std::once_flag built;
    /** Every word of at most h syllables. */
    std::vector<Node> shortWords;
    /** Words of exactly h syllables, every a1..ah >= 1. */
    std::vector<Prefix> prefixes;
    /** 1..n-h syllables "H T^a": interior a >= 1, last a in [0,7]. */
    std::vector<Suffix> suffixes;

    void
    build(int n)
    {
        Su2 cur = Su2::identity();
        for (int a0 = 0; a0 <= 7; ++a0) {
            if (a0 > 0)
                cur = Su2::tGate() * cur;
            growShort(cur, Word{}.then(a0), 0, n / 2);
        }
        growSuffixes(Su2::identity(), Word{}, n - n / 2);
    }

    /** Same products, in the same order, as the depth-first search. */
    void
    growShort(const Su2 &m, Word word, int syllables, int h)
    {
        shortWords.push_back({m, word});
        if (syllables > 0 && word.at(word.len - 1) == 0)
            return; // a trailing H ends the word
        if (syllables == h) {
            prefixes.push_back(
                {static_cast<std::uint32_t>(shortWords.size() - 1),
                 quaternion(m)});
            return;
        }
        Su2 cur = Su2::hGate() * m;
        for (int a = 0; a <= 7; ++a) {
            if (a > 0)
                cur = Su2::tGate() * cur;
            growShort(cur, word.then(a), syllables + 1, h);
        }
    }

    void
    growSuffixes(const Su2 &m, Word word, int left)
    {
        Su2 cur = Su2::hGate() * m;
        for (int a = 0; a <= 7; ++a) {
            if (a > 0)
                cur = Su2::tGate() * cur;
            suffixes.push_back({cur.dagger(), word.then(a)});
            if (a > 0 && left > 1)
                growSuffixes(cur, word.then(a), left - 1);
        }
    }
};

FowlerSynth::FowlerSynth(Options options)
    : opts_(options), halves_(std::make_shared<HalfWords>())
{
    if (opts_.maxSyllables < 1 || opts_.maxSyllables > 9)
        throw std::invalid_argument(
            "FowlerSynth: maxSyllables must be in [1, 9]");
}

ApproxSequence
FowlerSynth::search(const Su2 &target) const
{
    HalfWords &t = *halves_;
    std::call_once(t.built, [&] { t.build(opts_.maxSyllables); });

    // A word's cost: its T powers, plus one per H (one per syllable).
    int powerCost[8];
    for (int a = 0; a <= 7; ++a)
        powerCost[a] = tPowerCost(a, opts_.pureHT, opts_.tCostWeight);
    const auto powers = [&](Word w) {
        int c = 0;
        for (int i = 0; i < w.len; ++i)
            c += powerCost[w.at(i)];
        return c;
    };

    std::vector<double> shortError(t.shortWords.size());
    for (std::size_t i = 0; i < t.shortWords.size(); ++i)
        shortError[i] = t.shortWords[i].m.distTo(target);

    // For a prefix P and a suffix S, |tr((S P)^dag target)| / 2 =
    // |<q_P, q_X>| with X = S^dag target: index the X points.
    struct Point
    {
        Quat y;
        std::uint32_t suffix;
    };
    std::vector<Point> points;
    points.reserve(2 * t.suffixes.size());
    int minSuffixCost = 1 << 30;
    for (std::size_t j = 0; j < t.suffixes.size(); ++j) {
        const Quat y = quaternion(t.suffixes[j].dagger * target);
        const auto idx = static_cast<std::uint32_t>(j);
        points.push_back({y, idx});
        points.push_back({{-y[0], -y[1], -y[2], -y[3]}, idx});
        const Word tail = t.suffixes[j].word;
        minSuffixCost = std::min(minSuffixCost, powers(tail) + tail.len);
    }
    std::sort(points.begin(), points.end(),
              [](const Point &x, const Point &y) { return x.y[0] < y.y[0]; });

    const Su2 hMat = Su2::hGate();
    const Su2 tMat = Su2::tGate();
    const auto scan = [&](double tol) {
        Pick pick(tol);
        for (std::size_t i = 0; i < t.shortWords.size(); ++i) {
            const Word w = t.shortWords[i].word;
            pick.consider(shortError[i], powers(w) + w.len - 1, w);
        }
        for (const HalfWords::Prefix &p : t.prefixes) {
            const Node &node = t.shortWords[p.node];
            const int prefixCost = powers(node.word) + node.word.len - 1;
            if (!pick.open(prefixCost + minSuffixCost))
                continue;
            // Unit quaternions with this overlap lie within this
            // chord of each other, so in every coordinate.
            double floor = pick.overlapFloor();
            const double reach = std::sqrt(2.0 - 2.0 * floor + 1e-12);
            auto it = std::lower_bound(
                points.begin(), points.end(), p.q[0] - reach,
                [](const Point &x, double v) { return x.y[0] < v; });
            for (; it != points.end() && it->y[0] <= p.q[0] + reach;
                 ++it) {
                if (!(dot(p.q, it->y) >= floor))
                    continue;
                const Word tail = t.suffixes[it->suffix].word;
                const int c = prefixCost + powers(tail) + tail.len;
                if (!pick.open(c))
                    continue;
                // The depth-first search's own products: H, then T
                // once per T, from the prefix's matrix.
                Su2 cur = node.m;
                for (int i = 0; i < tail.len; ++i) {
                    cur = hMat * cur;
                    for (int a = tail.at(i); a > 0; --a)
                        cur = tMat * cur;
                }
                pick.consider(cur.distTo(target), c,
                              node.word.then(tail));
                floor = pick.overlapFloor();
            }
        }
        return pick;
    };

    Pick pick = scan(opts_.maxError);
    if (!pick.found) {
        // The tolerance is unreachable at this depth. Re-search for
        // the cheapest word within a tight (2%) band of the best
        // achievable error, so the cost objective (and in
        // particular the T weight) still selects among the words of
        // essentially optimal fidelity.
        pick = scan(pick.error * 1.02 + 1e-15);
    }
    return wordToSequence(pick.word, pick.error, opts_.pureHT);
}

const ApproxSequence &
FowlerSynth::rotZ(int k)
{
    auto it = cache_.find(k);
    if (it != cache_.end())
        return it->second;

    ApproxSequence seq;
    const int mag = k < 0 ? -k : k;
    if (mag == 0) {
        seq.gates = {GateKind::Z};
    } else if (mag == 1) {
        seq.gates = {k > 0 ? GateKind::S : GateKind::Sdg};
    } else if (mag == 2) {
        seq.gates = {k > 0 ? GateKind::T : GateKind::Tdg};
    } else if (k > 0) {
        seq = search(Su2::rotZ(k));
    } else {
        seq = rotZ(mag).inverted();
    }
    return cache_.emplace(k, std::move(seq)).first->second;
}

} // namespace qc
