/**
 * @file
 * Unit tests for the Fowler rotation-word search: Su2 algebra,
 * exact Clifford/T cases, inversion, approximation quality, and the
 * meet-in-the-middle search against the depth-first oracle
 * (FowlerDfs.hh): same word, same error bits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "FowlerDfs.hh"
#include "synth/Fowler.hh"
#include "synth/Su2.hh"

namespace qc {
namespace {

TEST(Su2, IdentityDistanceZero)
{
    EXPECT_DOUBLE_EQ(Su2::identity().distTo(Su2::identity()), 0.0);
}

TEST(Su2, GlobalPhaseInvariance)
{
    // Z = e^{i pi/2} diag(e^{-i pi/2}, e^{i pi/2}); phase() differs
    // from the traceless convention by a global phase only.
    const Su2 z1 = Su2::zGate();
    const Su2 z2(-1.0, 0.0, 0.0, 1.0);
    EXPECT_NEAR(z1.distTo(z2), 0.0, 1e-12);
}

TEST(Su2, HIsInvolution)
{
    const Su2 h2 = Su2::hGate() * Su2::hGate();
    EXPECT_NEAR(h2.distTo(Su2::identity()), 0.0, 1e-12);
}

TEST(Su2, TSquaredIsS)
{
    const Su2 t2 = Su2::tGate() * Su2::tGate();
    EXPECT_NEAR(t2.distTo(Su2::sGate()), 0.0, 1e-12);
}

TEST(Su2, SSquaredIsZ)
{
    const Su2 s2 = Su2::sGate() * Su2::sGate();
    EXPECT_NEAR(s2.distTo(Su2::zGate()), 0.0, 1e-12);
}

TEST(Su2, TdgIsInverseOfT)
{
    const Su2 prod = Su2::tGate() * Su2::tdgGate();
    EXPECT_NEAR(prod.distTo(Su2::identity()), 0.0, 1e-12);
}

TEST(Su2, DaggerInverts)
{
    const Su2 u = Su2::hGate() * Su2::tGate() * Su2::hGate();
    EXPECT_NEAR((u.dagger() * u).distTo(Su2::identity()), 0.0, 1e-12);
}

TEST(Su2, RotZMatchesPhase)
{
    EXPECT_NEAR(Su2::rotZ(2).distTo(Su2::tGate()), 0.0, 1e-12);
    EXPECT_NEAR(Su2::rotZ(1).distTo(Su2::sGate()), 0.0, 1e-12);
    EXPECT_NEAR(Su2::rotZ(0).distTo(Su2::zGate()), 0.0, 1e-12);
    EXPECT_NEAR(Su2::rotZ(-2).distTo(Su2::tdgGate()), 0.0, 1e-12);
}

TEST(Su2, DistanceScalesWithAngle)
{
    // |tr(I . rotZ(theta))| = |1 + e^{i theta}| = 2 cos(theta/2),
    // so dist(I, rotZ(k)) = sqrt(1 - cos(pi / 2^{k+1})).
    for (int k = 3; k <= 8; ++k) {
        const double expected = std::sqrt(
            1.0 - std::cos(M_PI / std::ldexp(2.0, k)));
        EXPECT_NEAR(Su2::identity().distTo(Su2::rotZ(k)), expected,
                    1e-12)
            << "k=" << k;
    }
}

class FowlerTest : public ::testing::Test
{
  protected:
    FowlerSynth synth_{FowlerSynth::Options{5, 1e-3}};
};

TEST_F(FowlerTest, ExactCliffordCases)
{
    EXPECT_TRUE(synth_.rotZ(0).exact());
    EXPECT_TRUE(synth_.rotZ(1).exact());
    EXPECT_TRUE(synth_.rotZ(2).exact());
    EXPECT_EQ(synth_.rotZ(2).gates.size(), 1u);
    EXPECT_EQ(synth_.rotZ(2).gates[0], GateKind::T);
    EXPECT_EQ(synth_.rotZ(-1).gates[0], GateKind::Sdg);
}

TEST_F(FowlerTest, WordUnitaryMatchesReportedError)
{
    for (int k = 3; k <= 6; ++k) {
        const ApproxSequence &seq = synth_.rotZ(k);
        const double actual = seq.unitary().distTo(Su2::rotZ(k));
        EXPECT_NEAR(actual, seq.error, 1e-9) << "k=" << k;
    }
}

TEST_F(FowlerTest, InvertedWordImplementsInverse)
{
    const ApproxSequence &fwd = synth_.rotZ(4);
    const ApproxSequence inv = fwd.inverted();
    const Su2 prod = inv.unitary() * fwd.unitary();
    // word * inverse-word is exactly identity (word-level inverse).
    EXPECT_NEAR(prod.distTo(Su2::identity()), 0.0, 1e-9);
}

TEST_F(FowlerTest, NegativeKUsesInvertedCachedWord)
{
    const ApproxSequence &neg = synth_.rotZ(-4);
    const double err = neg.unitary().distTo(Su2::rotZ(-4));
    EXPECT_NEAR(err, neg.error, 1e-9);
}

TEST_F(FowlerTest, TinyRotationsApproximatedByShortWords)
{
    // For k >= 11 the identity is already within 1e-3 of the target,
    // so the search must return a word no worse than that.
    const ApproxSequence &seq = synth_.rotZ(12);
    EXPECT_LE(seq.error, 1e-3);
    EXPECT_LE(seq.size(), 2);
}

TEST_F(FowlerTest, ErrorImprovesOrMatchesTrivialWord)
{
    // The search must never be worse than the empty word.
    for (int k = 3; k <= 10; ++k) {
        const double trivial =
            Su2::identity().distTo(Su2::rotZ(k));
        EXPECT_LE(synth_.rotZ(k).error, trivial + 1e-12)
            << "k=" << k;
    }
}

TEST_F(FowlerTest, DeeperSearchIsNoWorse)
{
    FowlerSynth shallow(FowlerSynth::Options{3, 1e-3});
    FowlerSynth deep(FowlerSynth::Options{6, 1e-3});
    for (int k = 3; k <= 5; ++k) {
        EXPECT_LE(deep.rotZ(k).error, shallow.rotZ(k).error + 1e-12)
            << "k=" << k;
    }
}

TEST_F(FowlerTest, TCountCountsOnlyTGates)
{
    ApproxSequence seq;
    seq.gates = {GateKind::H, GateKind::T, GateKind::S, GateKind::Tdg,
                 GateKind::Z};
    EXPECT_EQ(seq.tCount(), 2);
    EXPECT_EQ(seq.size(), 5);
}

TEST_F(FowlerTest, CacheReturnsSameObject)
{
    const ApproxSequence &a = synth_.rotZ(5);
    const ApproxSequence &b = synth_.rotZ(5);
    EXPECT_EQ(&a, &b);
}

TEST(FowlerSearch, ExactTargetsFoundInSearchSpace)
{
    // H T H is in the space; searching for it must give error ~0 and
    // a short word.
    FowlerSynth synth(FowlerSynth::Options{3, 1e-6});
    const Su2 target =
        Su2::hGate() * Su2::tGate() * Su2::hGate();
    const ApproxSequence seq = synth.search(target);
    EXPECT_NEAR(seq.error, 0.0, 1e-9);
    EXPECT_LE(seq.size(), 3);
}

TEST(FowlerSearch, SGateFoundAsSingleGate)
{
    FowlerSynth synth(FowlerSynth::Options{2, 1e-6});
    const ApproxSequence seq = synth.search(Su2::sGate());
    EXPECT_NEAR(seq.error, 0.0, 1e-9);
    EXPECT_EQ(seq.size(), 1);
    EXPECT_EQ(seq.gates[0], GateKind::S);
}

TEST(FowlerDeath, RejectsBadOptions)
{
    for (int n : {0, 10}) {
        EXPECT_THROW(FowlerSynth(FowlerSynth::Options{n, 1e-3}),
                     std::invalid_argument)
            << "maxSyllables=" << n;
    }
}

// ---------------------------------------------------------------
// The search against the depth-first oracle
// ---------------------------------------------------------------

std::string
describe(const FowlerSynth::Options &o)
{
    return "{" + std::to_string(o.maxSyllables) + ", "
        + std::to_string(o.maxError) + (o.pureHT ? ", pureHT" : "")
        + ", w" + std::to_string(o.tCostWeight) + "}";
}

/** Same gate string and the same error bits as the oracle. */
void
expectSameAsDfs(const ApproxSequence &got, const Su2 &target,
                const FowlerSynth::Options &opts,
                const std::string &what)
{
    const ApproxSequence want = dfs::search(target, opts);
    EXPECT_EQ(got.gates, want.gates) << what << " " << describe(opts);
    EXPECT_EQ(std::memcmp(&got.error, &want.error, sizeof(double)), 0)
        << what << " " << describe(opts) << ": " << got.error
        << " vs " << want.error;
}

void
expectRotationsMatchDfs(const FowlerSynth::Options &opts, int kLo,
                        int kHi)
{
    FowlerSynth synth(opts);
    for (int k = kLo; k <= kHi; ++k) {
        expectSameAsDfs(synth.rotZ(k), Su2::rotZ(k), opts,
                        "rotZ(" + std::to_string(k) + ")");
    }
}

TEST(FowlerOracle, PaperOptionsMatchDfs)
{
    // Every shipped spec that synthesizes uses these options.
    expectRotationsMatchDfs({6, 1e-3, true, 3}, 3, 9);
}

TEST(FowlerOracle, ShallowOptionsMatchDfsForEveryK)
{
    const FowlerSynth::Options sets[] = {
        {4, 1e-3, true, 3}, // ci_smoke
        {5, 1e-3},
        {3, 1e-3},
        {2, 1e-6},
        {1, 1e-3},
    };
    for (const FowlerSynth::Options &opts : sets)
        expectRotationsMatchDfs(opts, 3, 16);
}

/** phase H phase H phase with seeded random phases: targets far from
 *  the identity. */
std::vector<Su2>
randomTargets(int count)
{
    std::mt19937_64 rng(2008);
    std::uniform_real_distribution<double> angle(-M_PI, M_PI);
    std::vector<Su2> out;
    for (int i = 0; i < count; ++i) {
        out.push_back(Su2::phase(angle(rng)) * Su2::hGate()
                      * Su2::phase(angle(rng)) * Su2::hGate()
                      * Su2::phase(angle(rng)));
    }
    return out;
}

TEST(FowlerOracle, ReachableAndUnreachableTolerancesMatchDfs)
{
    for (double maxError : {0.05, 0.3}) {
        const FowlerSynth::Options opts{6, maxError, true, 3};
        FowlerSynth synth(opts);
        for (const Su2 &target : randomTargets(2)) {
            const ApproxSequence got = synth.search(target);
            // Some word is within tolerance: the found path.
            EXPECT_LE(got.error, maxError);
            expectSameAsDfs(got, target, opts, "random target");
        }
    }
    // No word is within a tolerance < 0 or NaN, and only an exact one
    // (T here) within 0; otherwise the 2% band decides.
    for (double maxError :
         {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
        const FowlerSynth::Options opts{4, maxError};
        FowlerSynth synth(opts);
        for (const Su2 &target : {Su2::rotZ(3), Su2::tGate()})
            expectSameAsDfs(synth.search(target), target, opts,
                            "maxError <= 0");
    }
}

TEST(FowlerOracle, ArbitraryTargetsMatchDfs)
{
    std::vector<Su2> targets = {
        Su2::hGate() * Su2::tGate() * Su2::hGate(), Su2::identity()};
    for (const Su2 &target : randomTargets(8))
        targets.push_back(target);
    const FowlerSynth::Options sets[] = {{5, 1e-3}, {4, 0.1, true, 3}};
    for (const FowlerSynth::Options &opts : sets) {
        FowlerSynth synth(opts);
        for (std::size_t i = 0; i < targets.size(); ++i) {
            expectSameAsDfs(synth.search(targets[i]), targets[i], opts,
                            "target " + std::to_string(i));
        }
    }
}

} // namespace
} // namespace qc
