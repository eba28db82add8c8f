/**
 * @file
 * Tests for the Pauli-frame Monte Carlo engine: frame algebra,
 * propagation rules, and the Figure 4 reproduction (orderings and
 * magnitudes of the ancilla-preparation error rates).
 */

#include <gtest/gtest.h>

#include <vector>

#include "codes/ConcatenatedCode.hh"
#include "error/AncillaSim.hh"
#include "error/BatchAncillaSim.hh"
#include "error/ImportanceSampler.hh"
#include "error/RecursiveError.hh"

#include "ScalarAncillaSim.hh"

namespace qc {
namespace {

using scalar::AncillaPrepSimulator;
using scalar::PauliFrame;

TEST(PauliFrame, StartsClean)
{
    PauliFrame f;
    EXPECT_EQ(f.xMask(), 0u);
    EXPECT_EQ(f.zMask(), 0u);
}

TEST(PauliFrame, HSwapsXAndZ)
{
    PauliFrame f;
    f.flipX(3);
    f.applyH(3);
    EXPECT_FALSE(f.hasX(3));
    EXPECT_TRUE(f.hasZ(3));
    f.applyH(3);
    EXPECT_TRUE(f.hasX(3));
    EXPECT_FALSE(f.hasZ(3));
}

TEST(PauliFrame, STurnsXIntoY)
{
    PauliFrame f;
    f.flipX(1);
    f.applyS(1);
    EXPECT_TRUE(f.hasX(1));
    EXPECT_TRUE(f.hasZ(1));
    // S on a pure Z error does nothing.
    PauliFrame g;
    g.flipZ(1);
    g.applyS(1);
    EXPECT_FALSE(g.hasX(1));
    EXPECT_TRUE(g.hasZ(1));
}

TEST(PauliFrame, CxPropagatesXForwardZBackward)
{
    PauliFrame f;
    f.flipX(0);
    f.applyCx(0, 1);
    EXPECT_TRUE(f.hasX(0));
    EXPECT_TRUE(f.hasX(1));

    PauliFrame g;
    g.flipZ(1);
    g.applyCx(0, 1);
    EXPECT_TRUE(g.hasZ(0));
    EXPECT_TRUE(g.hasZ(1));

    // X on target and Z on control do not propagate.
    PauliFrame h;
    h.flipX(1);
    h.flipZ(0);
    h.applyCx(0, 1);
    EXPECT_FALSE(h.hasX(0));
    EXPECT_TRUE(h.hasX(1));
    EXPECT_TRUE(h.hasZ(0));
    EXPECT_FALSE(h.hasZ(1));
}

TEST(PauliFrame, CzDepositsPhaseOnPartner)
{
    PauliFrame f;
    f.flipX(0);
    f.applyCz(0, 1);
    EXPECT_TRUE(f.hasX(0));
    EXPECT_TRUE(f.hasZ(1));
    EXPECT_FALSE(f.hasZ(0));
}

TEST(PauliFrame, ClearRangeForgetsOnlyThatRange)
{
    PauliFrame f;
    f.flipX(2);
    f.flipX(9);
    f.flipZ(10);
    f.clearRange(7, 7);
    EXPECT_TRUE(f.hasX(2));
    EXPECT_FALSE(f.hasX(9));
    EXPECT_FALSE(f.hasZ(10));
}

TEST(PauliFrame, InjectionRespectsProbability)
{
    Rng rng(5);
    PauliFrame f;
    int faults = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        f.clear();
        f.inject1q(rng, 0.01, 0);
        if (f.hasX(0) || f.hasZ(0))
            ++faults;
    }
    EXPECT_NEAR(static_cast<double>(faults) / n, 0.01, 0.002);
}

TEST(PauliFrame, TwoQubitInjectionCoversBothQubits)
{
    Rng rng(6);
    PauliFrame f;
    int on_a = 0, on_b = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        f.clear();
        f.inject2q(rng, 1.0, 0, 1); // always inject
        const bool a = f.hasX(0) || f.hasZ(0);
        const bool b = f.hasX(1) || f.hasZ(1);
        EXPECT_TRUE(a || b); // never identity
        on_a += a;
        on_b += b;
    }
    // 12 of 15 non-identity Paulis touch each side.
    EXPECT_NEAR(static_cast<double>(on_a) / n, 0.8, 0.01);
    EXPECT_NEAR(static_cast<double>(on_b) / n, 0.8, 0.01);
}

// ---------------------------------------------------------------
// Figure 4 reproduction. Trial counts are kept modest for test
// runtime; the bench binary runs the full-precision version.
// ---------------------------------------------------------------

class Fig4Test : public ::testing::Test
{
  protected:
    static PrepEstimate
    run(ZeroPrepStrategy strategy, std::uint64_t trials,
        CorrectionSemantics semantics =
            CorrectionSemantics::DiscardOnSyndrome)
    {
        BatchAncillaSim sim(ErrorParams::paper(), MovementModel{},
                            0xf16f4, semantics);
        return sim.estimate(strategy, trials);
    }
};

TEST_F(Fig4Test, ZeroNoiseMeansZeroErrors)
{
    ErrorParams clean;
    clean.pGate = 0;
    clean.pMove = 0;
    BatchAncillaSim sim(clean, MovementModel{}, 1);
    for (auto strat :
         {ZeroPrepStrategy::Basic, ZeroPrepStrategy::VerifyOnly,
          ZeroPrepStrategy::CorrectOnly,
          ZeroPrepStrategy::VerifyAndCorrect}) {
        const PrepEstimate est = sim.estimate(strat, 2000);
        EXPECT_EQ(est.failures, 0u) << zeroPrepStrategyName(strat);
        EXPECT_EQ(est.discards, 0u);
    }
}

TEST_F(Fig4Test, BasicErrorRateOrderOfMagnitude)
{
    // Paper: 1.8e-3. Our reconstruction of the layout/schedule puts
    // it in the low 1e-4..1e-3 band; require the order of magnitude.
    const PrepEstimate est = run(ZeroPrepStrategy::Basic, 200000);
    EXPECT_GT(est.errorRate(), 1e-4);
    EXPECT_LT(est.errorRate(), 3e-3);
}

TEST_F(Fig4Test, VerifyOnlyBeatsBasic)
{
    const PrepEstimate basic = run(ZeroPrepStrategy::Basic, 300000);
    const PrepEstimate verify =
        run(ZeroPrepStrategy::VerifyOnly, 300000);
    EXPECT_LT(verify.errorRate(), basic.errorRate());
}

TEST_F(Fig4Test, VerifyAndCorrectIsOrdersOfMagnitudeBetter)
{
    // Paper: 2.9e-5 vs 3.7e-4 (verify only) — more than an order of
    // magnitude. Under discard semantics our pipeline is at least
    // that much better.
    const PrepEstimate verify =
        run(ZeroPrepStrategy::VerifyOnly, 200000);
    const PrepEstimate vc =
        run(ZeroPrepStrategy::VerifyAndCorrect, 200000);
    EXPECT_LT(vc.errorRate() * 10.0, verify.errorRate());
}

TEST_F(Fig4Test, VerificationFailureRateNearPaper)
{
    // Paper Section 2.3: ~0.2% verification failure rate.
    const PrepEstimate est =
        run(ZeroPrepStrategy::VerifyOnly, 300000);
    EXPECT_GT(est.discardRate(), 0.0005);
    EXPECT_LT(est.discardRate(), 0.004);
}

TEST_F(Fig4Test, ApplyFixSemanticsWeakerThanDiscard)
{
    const PrepEstimate discard = run(
        ZeroPrepStrategy::VerifyAndCorrect, 150000,
        CorrectionSemantics::DiscardOnSyndrome);
    const PrepEstimate apply = run(
        ZeroPrepStrategy::VerifyAndCorrect, 150000,
        CorrectionSemantics::ApplyFix);
    EXPECT_LE(discard.errorRate(), apply.errorRate());
}

TEST_F(Fig4Test, ApplyFixReproducesFig4cOrdering)
{
    // Paper Fig 4c: Verify-and-Correct with in-place fix-ups lands
    // at 2.9e-5 — more than an order of magnitude below Verify Only
    // (3.7e-4). The parity-aware decode plus confirmed phase
    // extraction puts our reconstruction near 1e-5; pin the
    // sub-1e-4 magnitude and the ordering. (Before the fix this
    // strategy sat at Correct-Only rates, ~1e-3.)
    const PrepEstimate vc = run(
        ZeroPrepStrategy::VerifyAndCorrect, 1000000,
        CorrectionSemantics::ApplyFix);
    EXPECT_LT(vc.errorInterval().hi, 1e-4);

    const PrepEstimate verify =
        run(ZeroPrepStrategy::VerifyOnly, 200000,
            CorrectionSemantics::ApplyFix);
    EXPECT_LT(vc.errorRate() * 10.0, verify.errorRate());
}

TEST_F(Fig4Test, ApplyFixScalarAndBatchEnginesAgree)
{
    // The corrected fix-up schedule must be the same physics in
    // both engines: overlapping Wilson intervals at the paper
    // point.
    AncillaPrepSimulator scalar(ErrorParams::paper(),
                                MovementModel{}, 0x51a,
                                CorrectionSemantics::ApplyFix);
    const PrepEstimate s = scalar.estimateScalar(
        ZeroPrepStrategy::VerifyAndCorrect, 400000);
    const PrepEstimate b =
        run(ZeroPrepStrategy::VerifyAndCorrect, 2000000,
            CorrectionSemantics::ApplyFix);
    const Interval si = s.errorInterval();
    const Interval bi = b.errorInterval();
    EXPECT_TRUE(si.lo <= bi.hi && bi.lo <= si.hi)
        << "scalar [" << si.lo << ", " << si.hi << "] batch ["
        << bi.lo << ", " << bi.hi << "]";
}

TEST_F(Fig4Test, CorrectOnlyUnderApplyFixNearPaperValue)
{
    // Paper Fig 4b: 1.1e-3 with in-place corrections.
    const PrepEstimate est =
        run(ZeroPrepStrategy::CorrectOnly, 200000,
            CorrectionSemantics::ApplyFix);
    EXPECT_GT(est.errorRate(), 2e-4);
    EXPECT_LT(est.errorRate(), 4e-3);
}

TEST_F(Fig4Test, MovementErrorsAreSecondOrderEffect)
{
    // pMove = 1e-6 contributes little next to pGate = 1e-4:
    // removing movement errors entirely must not change the basic
    // rate by more than ~30%.
    ErrorParams no_move = ErrorParams::paper();
    no_move.pMove = 0;
    BatchAncillaSim with(ErrorParams::paper(), MovementModel{}, 77);
    BatchAncillaSim without(no_move, MovementModel{}, 77);
    const double a =
        with.estimate(ZeroPrepStrategy::Basic, 400000).errorRate();
    const double b =
        without.estimate(ZeroPrepStrategy::Basic, 400000).errorRate();
    EXPECT_NEAR(a, b, 0.3 * a + 1e-5);
}

TEST_F(Fig4Test, Pi8ConversionErrorRateBounded)
{
    BatchAncillaSim sim(ErrorParams::paper(), MovementModel{}, 123);
    const PrepEstimate est = sim.estimatePi8(100000);
    // The conversion adds a cat interaction and decode on top of a
    // verified+corrected zero: still far below the basic rate.
    EXPECT_LT(est.errorRate(), 1e-3);
}

TEST_F(Fig4Test, DeterministicAcrossRuns)
{
    const PrepEstimate a = run(ZeroPrepStrategy::Basic, 50000);
    const PrepEstimate b = run(ZeroPrepStrategy::Basic, 50000);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.discards, b.discards);
}

TEST_F(Fig4Test, HigherGateErrorRaisesOutputError)
{
    ErrorParams noisy = ErrorParams::paper();
    noisy.pGate = 1e-3;
    BatchAncillaSim base(ErrorParams::paper(), MovementModel{}, 9);
    BatchAncillaSim hot(noisy, MovementModel{}, 9);
    const double a =
        base.estimate(ZeroPrepStrategy::Basic, 100000).errorRate();
    const double b =
        hot.estimate(ZeroPrepStrategy::Basic, 100000).errorRate();
    EXPECT_GT(b, 3.0 * a);
}

// ---------------------------------------------------------------
// Recursive (level-2) error analytics. Trial counts modest; the
// level-2 bench runs the full-precision version.
// ---------------------------------------------------------------

class RecursiveErrorTest : public ::testing::Test
{
  protected:
    /**
     * Elevated reference point: with discard semantics the paper
     * point's level-1 failures (~8e-7) would make the level-2 rate
     * ~A f1^2 ~ 1e-11 — unmeasurable. Near (but below) the
     * pseudo-threshold both levels resolve with modest trials.
     */
    static const RecursiveErrorAnalysis &
    elevatedAnalysis()
    {
        static const RecursiveErrorAnalysis analysis = [] {
            ErrorParams hot;
            hot.pGate = 1e-2;
            hot.pMove = 1e-5;
            return analyzeRecursiveError(hot, MovementModel{},
                                         0x2f1e7, 1 << 19,
                                         1 << 20);
        }();
        return analysis;
    }
};

TEST_F(RecursiveErrorTest, LevelRatesAreOrderedBelowThreshold)
{
    const RecursiveErrorAnalysis &a = elevatedAnalysis();
    ASSERT_EQ(a.levels.size(), 3u);
    // The reference point sits below pseudo-threshold, so each
    // level of concatenation suppresses the logical error rate.
    EXPECT_TRUE(a.belowThreshold());
    EXPECT_LT(a.levels[1].pGate, a.levels[0].pGate);
    EXPECT_LT(a.levels[2].pGate, a.levels[1].pGate);
    EXPECT_LT(a.levels[1].pMove, a.levels[0].pMove);
}

TEST_F(RecursiveErrorTest, PseudoThresholdMagnitude)
{
    // f1 ~ 3.6e-3 at pGate = 1e-2 gives A ~ 36 and p_th ~ 3e-2 for
    // the discard-on-syndrome factory semantics. Pin the order of
    // magnitude.
    const RecursiveErrorAnalysis &a = elevatedAnalysis();
    EXPECT_GT(a.gateAmplification, 0);
    EXPECT_GT(a.pseudoThreshold, 3e-3);
    EXPECT_LT(a.pseudoThreshold, 3e-1);
}

TEST_F(RecursiveErrorTest, TwoLevelMonteCarloMatchesProjection)
{
    // The analytic recursion f2 = A f1^2 and the two-level Monte
    // Carlo measure the same quantity through different machinery;
    // at this point they land within ~12% of each other. Allow 3x
    // for statistics and the higher-order terms the fit drops.
    const RecursiveErrorAnalysis &a = elevatedAnalysis();
    const double projected = a.projectedFailureRate(2);
    const double measured = a.levels[2].pGate;
    ASSERT_GT(projected, 0);
    ASSERT_GT(a.level2Prep.failures, 0u);
    EXPECT_GT(measured, projected / 3.0);
    EXPECT_LT(measured, projected * 3.0);
}

TEST_F(RecursiveErrorTest, AcceptanceFallsWithLevelErrorRate)
{
    // Verification discards track the input error rate, so the
    // level-2 stage (fed ~p^2 blocks) accepts more often than the
    // level-1 stage it is built from.
    const RecursiveErrorAnalysis &a = elevatedAnalysis();
    EXPECT_GT(a.level1AcceptRate, 0.5);
    EXPECT_LE(a.level1AcceptRate, 1.0);
    EXPECT_GT(a.level2AcceptRate, a.level1AcceptRate);
    EXPECT_LE(a.level2AcceptRate, 1.0);
}

TEST(RecursiveError, PaperPointIsDeepBelowThreshold)
{
    // At the paper's operating point level-1 failures are so rare
    // that a modest run may see none; the Wilson-bound fallback
    // must keep the analysis non-degenerate and the verdict
    // ("concatenation helps here") unambiguous.
    const RecursiveErrorAnalysis a = analyzeRecursiveError(
        ErrorParams::paper(), MovementModel{}, 0x2f1e7, 1 << 20,
        /*level2Trials=*/0);
    ASSERT_EQ(a.levels.size(), 3u);
    EXPECT_GT(a.levels[1].pGate, 0);
    EXPECT_LT(a.levels[1].pGate, 1e-4);
    EXPECT_TRUE(a.belowThreshold());
    EXPECT_GT(a.level1AcceptRate, 0.99);
}

TEST(RecursiveError, SkippingTheTwoLevelPassUsesTheProjection)
{
    const RecursiveErrorAnalysis a = analyzeRecursiveError(
        ErrorParams::paper(), MovementModel{}, 7, 1 << 18,
        /*level2Trials=*/0);
    ASSERT_EQ(a.levels.size(), 3u);
    EXPECT_EQ(a.level2Prep.trials, 0u);
    EXPECT_NEAR(a.levels[2].pGate, a.projectedFailureRate(2),
                1e-12);
}

TEST(RecursiveError, LevelOneLogicalRatesComposition)
{
    PrepEstimate est;
    est.trials = 1000000;
    est.failures = 29; // ~2.9e-5
    const LevelErrorRates rates =
        levelOneLogicalRates(est, ErrorParams::paper());
    EXPECT_EQ(rates.level, 1);
    EXPECT_NEAR(rates.pGate, 2.9e-5, 1e-9);
    // 21 * (moveScale * pMove)^2 under the paper's pMove = 1e-6.
    const double sub = ConcatenatedSteane::moveScalePerLevel * 1e-6;
    EXPECT_NEAR(rates.pMove, 21.0 * sub * sub, 1e-18);
}

// ---------------------------------------------------------------
// Pinned Monte Carlo streams. Every other tally this suite checks
// exactly runs at zero noise; these run at an elevated noise point
// so each retry loop, correction stage, fix-up coin, first-fault
// count and planned fault site consumes random numbers. A change that reorders or
// drops one RNG call in the scalar oracle or the batch engine
// (naive or stratified) changes a count below.
// ---------------------------------------------------------------

struct Tallies
{
    std::uint64_t failures, discards, verifyTrials, correctionTrials,
        correctionDiscards;
};

void
expectTallies(const PrepEstimate &e, const Tallies &want,
              const char *what)
{
    EXPECT_EQ(e.failures, want.failures) << what;
    EXPECT_EQ(e.discards, want.discards) << what;
    EXPECT_EQ(e.verifyTrials, want.verifyTrials) << what;
    EXPECT_EQ(e.correctionTrials, want.correctionTrials) << what;
    EXPECT_EQ(e.correctionDiscards, want.correctionDiscards) << what;
}

void
expectStrata(const StratifiedEstimate &e, std::uint64_t gateSites,
             std::uint64_t moveSites,
             const std::vector<std::uint64_t> &failures,
             const char *what)
{
    EXPECT_EQ(e.gateSites, gateSites) << what;
    EXPECT_EQ(e.moveSites, moveSites) << what;
    ASSERT_EQ(e.strata.size(), failures.size()) << what;
    for (std::size_t i = 0; i < failures.size(); ++i)
        EXPECT_EQ(e.strata[i].failures, failures[i])
            << what << " stratum (" << e.strata[i].gateFaults << ","
            << e.strata[i].moveFaults << ")";
}

TEST(MonteCarloStreams, TalliesPinnedAtElevatedNoise)
{
    ErrorParams errors;
    errors.pGate = 2e-3;
    errors.pMove = 1e-4;
    const MovementModel movement{};

    AncillaPrepSimulator discard(errors, movement, 11);
    expectTallies(
        discard.estimateScalar(ZeroPrepStrategy::VerifyAndCorrect,
                               4000),
        {1, 404, 14136, 9084, 648}, "scalar discard");
    AncillaPrepSimulator applyFix(errors, movement, 11,
                                  CorrectionSemantics::ApplyFix);
    expectTallies(
        applyFix.estimateScalar(ZeroPrepStrategy::VerifyAndCorrect,
                                4000),
        {20, 414, 17114, 12700, 0}, "scalar apply-fix");
    AncillaPrepSimulator pi8(errors, movement, 12,
                             CorrectionSemantics::ApplyFix);
    expectTallies(pi8.estimateScalarPi8(2000), {30, 217, 8542, 0, 0},
                  "scalar pi/8");

    // Strata in enumeration order: (0,0) (0,1) (0,2) (1,0) (1,1)
    // (2,0). Three words per qubit leaves a tail at every vector
    // width, and 500 trials per stratum split into three batches.
    BatchSimConfig batch;
    batch.wordsPerQubit = 3;
    ImportanceConfig config;
    config.maxFaults = 2;
    config.trialsPerStratum = 500;
    BatchAncillaSim sampler(errors, movement, 13,
                            CorrectionSemantics::DiscardOnSyndrome,
                            batch);
    expectStrata(
        sampler.estimateStratified(ZeroPrepStrategy::VerifyAndCorrect,
                                   config),
        121, 247, {0, 0, 3, 0, 1, 4}, "stratified zero");
    expectStrata(sampler.estimateStratifiedPi8(config), 163, 330,
                 {0, 14, 23, 10, 23, 19}, "stratified pi/8");
    BatchAncillaSim fixSampler(errors, movement, 14,
                               CorrectionSemantics::ApplyFix, batch);
    expectStrata(
        fixSampler.estimateStratified(
            ZeroPrepStrategy::VerifyAndCorrect, config),
        166, 341, {0, 0, 18, 0, 17, 24}, "stratified apply-fix");

    BatchAncillaSim fixBatch(errors, movement, 15,
                             CorrectionSemantics::ApplyFix, batch);
    expectTallies(
        fixBatch.estimate(ZeroPrepStrategy::VerifyAndCorrect, 10000),
        {28, 1175, 42768, 31593, 0}, "batch apply-fix");
    expectTallies(fixBatch.estimatePi8(4000), {78, 445, 17066, 0, 0},
                  "batch pi/8");
    BatchAncillaSim discardBatch(errors, movement, 16,
                                 CorrectionSemantics::
                                     DiscardOnSyndrome,
                                 batch);
    expectTallies(
        discardBatch.estimate(ZeroPrepStrategy::VerifyAndCorrect,
                              10000),
        {0, 867, 35085, 22640, 1578}, "batch discard");
}

} // namespace
} // namespace qc
