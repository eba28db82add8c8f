/**
 * @file
 * The exhaustive depth-first {H, T} word search: the oracle that
 * FowlerSynth's meet-in-the-middle search must match word for word
 * and bit for bit. It walks every canonical word
 *
 *     T^{a0} (H T^{a1}) ... (H T^{as}),   s <= maxSyllables,
 *
 * in lexicographic order (a prefix before its extensions), keeps the
 * cheapest word within maxError (ties: lower error, then first
 * visited), and if none is within tolerance re-searches within 2% of
 * the closest miss. Slow: ~1.25 M words per walk at 6 syllables.
 */

#ifndef QC_TESTS_FOWLER_DFS_HH
#define QC_TESTS_FOWLER_DFS_HH

#include <cstdint>
#include <vector>

#include "synth/Fowler.hh"
#include "synth/Su2.hh"

namespace qc::dfs {

/** Decomposition of T^a (a in [0,7]) over {T, S, Z, Sdg, Tdg}. */
inline const std::vector<GateKind> &
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
inline int
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

/** DFS state shared across the recursion. */
struct SearchCtx
{
    const Su2 *target;
    double maxError;
    int maxSyllables;
    bool pureHT;
    int tWeight;

    // Best-so-far.
    double bestError = 2.0;
    int bestCost = 1 << 30;
    std::vector<std::uint8_t> bestWord; // a0, a1, ..., as
    bool found = false;

    // Current path of syllable exponents.
    std::vector<std::uint8_t> word;

    void
    consider(const Su2 &m, int cost)
    {
        const double err = m.distTo(*target);
        const bool ok = err <= maxError;
        if (found) {
            // Among acceptable words prefer lower cost, then error.
            if (ok && (cost < bestCost ||
                       (cost == bestCost && err < bestError))) {
                bestCost = cost;
                bestError = err;
                bestWord = word;
            }
        } else if (ok) {
            found = true;
            bestCost = cost;
            bestError = err;
            bestWord = word;
        } else if (err < bestError) {
            // Track the closest miss as a fallback answer.
            bestError = err;
            bestCost = cost;
            bestWord = word;
        }
    }
};

/**
 * Recursively extend the word with "H T^a" syllables.
 *
 * @param ctx       search state
 * @param m         unitary of the word so far (later gates on left)
 * @param cost      decomposed gate count of the word so far
 * @param depth     syllables consumed so far
 */
inline void
extend(SearchCtx &ctx, const Su2 &m, int cost, int depth)
{
    if (depth >= ctx.maxSyllables)
        return;
    const Su2 afterH = Su2::hGate() * m;
    const Su2 tMat = Su2::tGate();

    ctx.word.push_back(0);
    // a = 0 is only meaningful as a final syllable (a trailing H);
    // deeper syllables with a = 0 would merge two H's.
    ctx.consider(afterH, cost + 1);

    Su2 cur = afterH;
    for (int a = 1; a <= 7; ++a) {
        cur = tMat * cur;
        ctx.word.back() = static_cast<std::uint8_t>(a);
        const int c = cost + 1 + tPowerCost(a, ctx.pureHT,
                                            ctx.tWeight);
        ctx.consider(cur, c);
        extend(ctx, cur, c, depth + 1);
    }
    ctx.word.pop_back();
}

inline ApproxSequence
wordToSequence(const std::vector<std::uint8_t> &word, double error,
               bool pure_ht)
{
    ApproxSequence seq;
    seq.error = error;
    bool first = true;
    for (std::uint8_t a : word) {
        if (!first)
            seq.gates.push_back(GateKind::H);
        if (pure_ht) {
            seq.gates.insert(seq.gates.end(), a, GateKind::T);
        } else {
            const auto &gates = tPowerGates(a);
            seq.gates.insert(seq.gates.end(), gates.begin(),
                             gates.end());
        }
        first = false;
    }
    return seq;
}

/** The exhaustive answer FowlerSynth(opts).search(target) must
 *  equal. */
inline ApproxSequence
search(const Su2 &target, const FowlerSynth::Options &opts)
{
    auto run_dfs = [&](double max_error) {
        SearchCtx ctx;
        ctx.target = &target;
        ctx.maxError = max_error;
        ctx.maxSyllables = opts.maxSyllables;
        ctx.pureHT = opts.pureHT;
        ctx.tWeight = opts.tCostWeight;

        // Leading T^{a0} syllable (no H before it), a0 = 0 meaning
        // the empty word.
        const Su2 tMat = Su2::tGate();
        Su2 cur = Su2::identity();
        for (int a0 = 0; a0 <= 7; ++a0) {
            if (a0 > 0)
                cur = tMat * cur;
            ctx.word.assign(1, static_cast<std::uint8_t>(a0));
            const int cost =
                tPowerCost(a0, opts.pureHT, opts.tCostWeight);
            ctx.consider(cur, cost);
            extend(ctx, cur, cost, 0);
        }
        return ctx;
    };

    SearchCtx ctx = run_dfs(opts.maxError);
    if (!ctx.found) {
        // The tolerance is unreachable at this depth. Re-search for
        // the cheapest word within a tight (2%) band of the best
        // achievable error.
        ctx = run_dfs(ctx.bestError * 1.02 + 1e-15);
    }
    return wordToSequence(ctx.bestWord, ctx.bestError, opts.pureHT);
}

} // namespace qc::dfs

#endif // QC_TESTS_FOWLER_DFS_HH
