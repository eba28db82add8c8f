/**
 * @file
 * Fowler-style exhaustive search for fault-tolerant single-qubit
 * rotation approximations (paper Section 2.5; Fowler,
 * quant-ph/0506126).
 *
 * Small-angle pi/2^k rotations have no transversal implementation on
 * the [[7,1,3]] code, so the paper approximates each one offline by
 * the minimum-length word over the fault-tolerant gate set {H, T}
 * within an acceptable error. We search canonical words of the form
 *
 *     T^{a0} (H T^{a1}) (H T^{a2}) ... (H T^{as})
 *
 * with a0, as in [0,7] and interior ai in [1,7] (any {H,T} word
 * reduces to this form since H^2 = I and T^8 = I), and report the
 * cheapest word whose phase-invariant distance to the target is
 * within tolerance. T-powers are re-expressed over {T, S, Z, Sdg,
 * Tdg} so the emitted sequence consumes the minimum number of pi/8
 * ancillae.
 *
 * The answer is the exhaustive one: among all words of at most
 * maxSyllables = n syllables, the cheapest within maxError (ties:
 * lower error, then the lexicographically first exponent string
 * a0, a1, ...); if none is, the cheapest within 2% of the least
 * error. It is found by meet in the middle (Amy, Maslov, Mosca and
 * Roetteler, arXiv:1206.0758) instead of a walk over every word
 * (1.25 M at n = 6, 8.8 M at 7, 430 M at 9):
 *
 *  - Tables, built by the first search() from n alone: every word of
 *    at most h = n/2 syllables with its matrix; the h-syllable words
 *    with a1..ah >= 1 as prefixes, with their unit quaternions; and
 *    every 1..n-h syllable suffix. A longer word is exactly one
 *    prefix then one suffix.
 *  - Filter: for prefix P and suffix S, |tr((S P)^dag U)| / 2 is the
 *    quaternion overlap of P with S^dag U. Those suffix points,
 *    sorted on one coordinate, are scanned only within the chord a
 *    word must reach to change the current choice, with 1e-12 slack
 *    over the ~1e-14 rounding of the overlap, so no such word is
 *    skipped.
 *  - Exact re-evaluation: a candidate's error comes from the Su2
 *    products the depth-first walk made (the prefix's matrix, then H
 *    and one T at a time) and Su2::distTo, so errors, and the ties
 *    they decide, are bit for bit the walk's. tests/FowlerDfs.hh
 *    keeps that walk as the oracle.
 */

#ifndef QC_SYNTH_FOWLER_HH
#define QC_SYNTH_FOWLER_HH

#include <map>
#include <memory>
#include <vector>

#include "circuit/Gate.hh"
#include "synth/Su2.hh"

namespace qc {

/** A fault-tolerant gate word approximating a target unitary. */
struct ApproxSequence
{
    /** Gates in application order (H, T, Tdg, S, Sdg, Z only). */
    std::vector<GateKind> gates;

    /** Phase-invariant distance to the target (0 = exact). */
    double error = 0.0;

    /** Total gate count. */
    int size() const { return static_cast<int>(gates.size()); }

    /** Number of pi/8-ancilla-consuming gates (T and Tdg). */
    int tCount() const;

    /** True if this word implements the target exactly. */
    bool exact() const { return error == 0.0; }

    /** The unitary this word implements. */
    Su2 unitary() const;

    /** The inverse word (reversed, each gate inverted). */
    ApproxSequence inverted() const;
};

/**
 * Cached exhaustive {H, T} search for pi/2^k rotation words.
 */
class FowlerSynth
{
  public:
    struct Options
    {
        /**
         * Maximum number of H-separated syllables to search, in
         * [1, 9]. The word count grows as ~7^maxSyllables. Measured
         * per pi/2^k word (k = 3..9, paper options, one Intel Xeon
         * core, GCC 12 Release): ~1.5 ms at 6, ~11 ms at 7 and
         * ~0.4 s at 9 (at most 0.53 s), against ~0.1 s, ~0.73 s and
         * ~52 s for the exhaustive depth-first walk.
         */
        int maxSyllables = 6;

        /** Acceptable phase-invariant distance to the target. */
        double maxError = 1e-3;

        /**
         * Emit words over the literal {H, T} alphabet (T^a as a
         * repeated T gates) instead of compressing T powers into
         * {T, S, Z, Sdg, Tdg}. Fowler's search [14] — and therefore
         * the paper's QFT gate mix with its ~47% non-transversal
         * fraction — uses the literal alphabet; the compressed form
         * consumes fewer pi/8 ancillae and is the better
         * engineering choice, so both are supported and the
         * difference is an ablation study.
         */
        bool pureHT = false;

        /**
         * Relative cost of a T/Tdg gate versus a Clifford in the
         * word-cost objective. T gates consume an encoded pi/8
         * ancilla (Section 2.4), so weighting them higher steers
         * the search toward Clifford-rich words of equal fidelity
         * and lowers the pi/8 bandwidth the circuit demands.
         */
        int tCostWeight = 1;
    };

    /** Search with default options. */
    FowlerSynth() : FowlerSynth(Options{}) {}

    /** Throws std::invalid_argument unless maxSyllables is in
     *  [1, 9]. */
    explicit FowlerSynth(Options options);

    /**
     * Word for the rotation diag(1, e^{i pi/2^k}); a negative k
     * requests the inverse rotation diag(1, e^{-i pi/2^|k|}).
     *
     * k in {0, 1, 2} (and negatives) are exact Cliffords / T gates;
     * larger |k| triggers (cached) search. If no word reaches
     * maxError within maxSyllables the best word found is returned
     * with its residual error — callers can inspect
     * ApproxSequence::error.
     */
    const ApproxSequence &rotZ(int k);

    /**
     * Search for an arbitrary target unitary (uncached; unitary to
     * rounding, which the filter's 1e-12 slack assumes). The first
     * call builds the half-word tables, which copies of this object
     * share.
     */
    ApproxSequence search(const Su2 &target) const;

    const Options &options() const { return opts_; }

  private:
    struct HalfWords;

    Options opts_;
    std::map<int, ApproxSequence> cache_;
    std::shared_ptr<HalfWords> halves_;
};

} // namespace qc

#endif // QC_SYNTH_FOWLER_HH
