/**
 * @file
 * Tests for the bit-parallel batched Monte Carlo engine: masked
 * BatchPauliFrame algebra against the scalar PauliFrame,
 * statistical equivalence of BatchAncillaSim with the scalar
 * reference engine (ScalarAncillaSim.hh), and bit-reproducibility
 * of naive and stratified estimates across thread counts and SIMD
 * widths.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "codes/SteaneCode.hh"
#include "common/Stats.hh"
#include "error/AncillaSim.hh"
#include "error/BatchAncillaSim.hh"
#include "error/BatchEngine.hh"
#include "error/BatchPauliFrame.hh"

#include "ScalarAncillaSim.hh"

namespace qc {
namespace {

using scalar::AncillaPrepSimulator;
using scalar::PauliFrame;

// ---------------------------------------------------------------
// Masked BatchPauliFrame algebra vs the scalar PauliFrame.
// ---------------------------------------------------------------

TEST(BatchPauliFrame, MaskedOpsMatchScalarFramePerTrial)
{
    constexpr int qubits = 8;
    Rng rng(123);
    BatchPauliFrame batch(qubits, 1);
    std::array<PauliFrame, 64> scalar;

    for (int step = 0; step < 5000; ++step) {
        const std::uint64_t m = rng();
        const int kind = static_cast<int>(rng.below(7));
        const int a = static_cast<int>(rng.below(qubits));
        int b = static_cast<int>(rng.below(qubits - 1));
        if (b >= a)
            ++b;
        for (int t = 0; t < 64; ++t) {
            if (!((m >> t) & 1))
                continue;
            PauliFrame &f = scalar[static_cast<std::size_t>(t)];
            switch (kind) {
              case 0: f.applyH(a); break;
              case 1: f.applyS(a); break;
              case 2: f.applyCx(a, b); break;
              case 3: f.applyCz(a, b); break;
              case 4: f.flipX(a); break;
              case 5: f.flipZ(a); break;
              case 6: f.clearRange(a, 1); break;
            }
        }
        switch (kind) {
          case 0: batch.applyH(a, &m); break;
          case 1: batch.applyS(a, &m); break;
          case 2: batch.applyCx(a, b, &m); break;
          case 3: batch.applyCz(a, b, &m); break;
          case 4: batch.flipX(a, &m); break;
          case 5: batch.flipZ(a, &m); break;
          case 6: batch.clearQubit(a, &m); break;
        }
    }

    for (int q = 0; q < qubits; ++q) {
        for (int t = 0; t < 64; ++t) {
            const PauliFrame &f =
                scalar[static_cast<std::size_t>(t)];
            EXPECT_EQ((batch.x(q)[0] >> t) & 1,
                      static_cast<std::uint64_t>(f.hasX(q)))
                << "q=" << q << " t=" << t;
            EXPECT_EQ((batch.z(q)[0] >> t) & 1,
                      static_cast<std::uint64_t>(f.hasZ(q)))
                << "q=" << q << " t=" << t;
        }
    }
}

TEST(BatchPauliFrame, InjectionRespectsMaskAndProbability)
{
    BatchPauliFrame frame(2, 1);
    Rng rng(5);
    RareBernoulliStream certain(1.0);
    const std::uint64_t mask = 0xAAAAAAAAAAAAAAAAull;

    frame.inject1q(rng, certain, 0, &mask, 64);
    for (int t = 0; t < 64; ++t) {
        const bool hit = ((frame.x(0)[0] | frame.z(0)[0]) >> t) & 1;
        EXPECT_EQ(hit, ((mask >> t) & 1) != 0) << "t=" << t;
    }

    frame.clear();
    frame.inject2q(rng, certain, 0, 1, &mask, 64);
    for (int t = 0; t < 64; ++t) {
        const bool hit = ((frame.x(0)[0] | frame.z(0)[0]
                           | frame.x(1)[0] | frame.z(1)[0])
                          >> t)
            & 1;
        EXPECT_EQ(hit, ((mask >> t) & 1) != 0) << "t=" << t;
    }

    // Rare-injection rate sanity (also exercised by the estimate
    // equivalence tests below).
    frame.clear();
    RareBernoulliStream pctw(0.01);
    pctw.reset(rng);
    const std::uint64_t all = ~std::uint64_t{0};
    int faults = 0;
    const int rounds = 20000;
    for (int i = 0; i < rounds; ++i) {
        frame.clearQubit(0, &all);
        frame.inject1q(rng, pctw, 0, &all, 64);
        faults += __builtin_popcountll(frame.x(0)[0]
                                       | frame.z(0)[0]);
    }
    EXPECT_NEAR(static_cast<double>(faults) / (64.0 * rounds), 0.01,
                0.001);
}

// ---------------------------------------------------------------
// Word-parallel classification identity.
// ---------------------------------------------------------------

TEST(SteaneShortcut, ParityXorSyndromeMatchesBadCoset)
{
    // The batched engine classifies residuals word-parallel via
    // badCoset(e) == parity(e) XOR (syndrome(e) != 0); prove the
    // identity over all 128 patterns.
    for (unsigned e = 0; e < 128; ++e) {
        const auto m = static_cast<SteaneCode::Mask>(e);
        EXPECT_EQ(SteaneCode::badCoset(m),
                  SteaneCode::parity(m)
                      ^ (SteaneCode::syndromeOf(m) != 0))
            << "e=" << e;
    }
}

// ---------------------------------------------------------------
// BatchAncillaSim vs the scalar reference engine.
// ---------------------------------------------------------------

bool
overlap(const Interval &a, const Interval &b)
{
    return a.lo <= b.hi && b.lo <= a.hi;
}

bool
sameEstimate(const PrepEstimate &a, const PrepEstimate &b)
{
    return a.trials == b.trials && a.failures == b.failures
        && a.discards == b.discards
        && a.verifyTrials == b.verifyTrials
        && a.correctionDiscards == b.correctionDiscards
        && a.correctionTrials == b.correctionTrials;
}

/**
 * The noise points the engines are compared at: the paper's, and an
 * elevated one where most batches retry, recycle and fault past
 * their first fault.
 */
const ErrorParams kComparedNoise[] = {ErrorParams::paper(), {2e-3, 1e-4}};

/** One fixed-seed comparison of the two engines' naive estimates. */
void
expectEnginesAgree(const ErrorParams &errors,
                   CorrectionSemantics semantics,
                   ZeroPrepStrategy strat)
{
    AncillaPrepSimulator scalar(errors, MovementModel{}, 0xabc,
                                semantics);
    BatchAncillaSim batch(errors, MovementModel{}, 0xdef, semantics);
    const PrepEstimate s = scalar.estimateScalar(strat, 150000);
    const PrepEstimate b = batch.estimate(strat, 1200000);
    const std::string what = std::string(zeroPrepStrategyName(strat))
        + " at pGate " + std::to_string(errors.pGate);
    EXPECT_TRUE(overlap(s.errorInterval(), b.errorInterval()))
        << what << " scalar [" << s.errorInterval().lo << ", "
        << s.errorInterval().hi << "] batch [" << b.errorInterval().lo
        << ", " << b.errorInterval().hi << "]";
    // Verification discard rates must agree as well.
    if (s.verifyTrials && b.verifyTrials) {
        EXPECT_TRUE(overlap(wilsonInterval(s.discards, s.verifyTrials),
                            wilsonInterval(b.discards, b.verifyTrials)))
            << what;
    }
    // And the correction stages' recycle rates.
    if (s.correctionTrials && b.correctionTrials) {
        EXPECT_TRUE(overlap(wilsonInterval(s.correctionDiscards,
                                           s.correctionTrials),
                            wilsonInterval(b.correctionDiscards,
                                           b.correctionTrials)))
            << what;
    }
}

TEST(BatchAncillaSim, MatchesScalarEngineForAllStrategies)
{
    for (const ErrorParams &errors : kComparedNoise) {
        for (auto semantics : {CorrectionSemantics::DiscardOnSyndrome,
                               CorrectionSemantics::ApplyFix}) {
            for (auto strat :
                 {ZeroPrepStrategy::Basic, ZeroPrepStrategy::VerifyOnly,
                  ZeroPrepStrategy::CorrectOnly,
                  ZeroPrepStrategy::VerifyAndCorrect})
                expectEnginesAgree(errors, semantics, strat);
        }
    }
}

TEST(BatchAncillaSim, MatchesScalarEngineForPi8)
{
    for (const ErrorParams &errors : kComparedNoise) {
        AncillaPrepSimulator scalar(errors, MovementModel{}, 0x314);
        BatchAncillaSim batch(errors, MovementModel{}, 0x159);
        const PrepEstimate s = scalar.estimateScalarPi8(100000);
        const PrepEstimate b = batch.estimatePi8(800000);
        EXPECT_TRUE(overlap(s.errorInterval(), b.errorInterval()))
            << "pGate " << errors.pGate << " scalar ["
            << s.errorInterval().lo << ", " << s.errorInterval().hi
            << "] batch [" << b.errorInterval().lo << ", "
            << b.errorInterval().hi << "]";
        EXPECT_TRUE(
            overlap(wilsonInterval(s.discards, s.verifyTrials),
                    wilsonInterval(b.discards, b.verifyTrials)))
            << "pGate " << errors.pGate;
    }
}

TEST(BatchAncillaSim, ZeroNoiseMeansZeroFailuresExactTallies)
{
    // With no noise no trial faults: every one is tallied from the
    // nominal path without being simulated.
    ErrorParams clean;
    clean.pGate = 0;
    clean.pMove = 0;
    struct Want
    {
        ZeroPrepStrategy strategy;
        std::uint64_t verify[2];     ///< per trial: discard, apply-fix
        std::uint64_t correction[2];
    };
    const Want wants[] = {
        {ZeroPrepStrategy::Basic, {0, 0}, {0, 0}},
        {ZeroPrepStrategy::VerifyOnly, {1, 1}, {0, 0}},
        {ZeroPrepStrategy::CorrectOnly, {0, 0}, {2, 2}},
        // Apply-fix confirms the phase syndrome with a second
        // extraction on a second verified ancilla.
        {ZeroPrepStrategy::VerifyAndCorrect, {3, 4}, {2, 3}},
    };
    const CorrectionSemantics semantics[] = {
        CorrectionSemantics::DiscardOnSyndrome,
        CorrectionSemantics::ApplyFix};
    for (int i = 0; i < 2; ++i) {
        BatchAncillaSim sim(clean, MovementModel{}, 3, semantics[i]);
        for (const Want &want : wants) {
            // 100 is deliberately not a multiple of the 64-trial
            // word width.
            const PrepEstimate est = sim.estimate(want.strategy, 100);
            const std::string what =
                std::string(zeroPrepStrategyName(want.strategy))
                + (i ? " apply-fix" : " discard");
            EXPECT_EQ(est.trials, 100u) << what;
            EXPECT_EQ(est.failures, 0u) << what;
            EXPECT_EQ(est.discards, 0u) << what;
            EXPECT_EQ(est.correctionDiscards, 0u) << what;
            EXPECT_EQ(est.verifyTrials, 100 * want.verify[i]) << what;
            EXPECT_EQ(est.correctionTrials, 100 * want.correction[i])
                << what;
        }
        const PrepEstimate pi8 = sim.estimatePi8(100);
        EXPECT_EQ(pi8.trials, 100u);
        EXPECT_EQ(pi8.failures, 0u);
        EXPECT_EQ(pi8.discards, 0u);
        EXPECT_EQ(pi8.verifyTrials, 100 * wants[3].verify[i]);
        EXPECT_EQ(pi8.correctionTrials, 0u);
    }

    BatchAncillaSim sim(clean, MovementModel{}, 3);
    EXPECT_EQ(sim.estimate(ZeroPrepStrategy::Basic, 0).trials, 0u);
}

TEST(BatchAncillaSim, Pi8CoinOnPathIsCoinOffPathPlusFixUp)
{
    // The naive estimator's two nominal paths, and the stratified
    // pi/8 (0,0) rate, rest on this shape: the fix-up is one gate
    // site per block-A qubit, after every other site.
    for (auto semantics : {CorrectionSemantics::DiscardOnSyndrome,
                           CorrectionSemantics::ApplyFix}) {
        const auto worker =
            makeBatchWorker(simd::Width::W64, ErrorParams::paper(),
                            kFig11Movement, semantics, 1);
        const NominalPath off = worker->probe(
            ZeroPrepStrategy::VerifyAndCorrect, true, false);
        const NominalPath on = worker->probe(
            ZeroPrepStrategy::VerifyAndCorrect, true, true);
        ASSERT_EQ(on.sites.size(), off.sites.size() + 7);
        EXPECT_TRUE(std::equal(off.sites.begin(), off.sites.end(),
                               on.sites.begin()));
        for (int i = 0; i < 7; ++i) {
            const NominalPath::Site &s =
                on.sites[off.sites.size() + static_cast<std::size_t>(i)];
            EXPECT_TRUE(s.gate && !s.readout);
            EXPECT_EQ(s.a, i);
            EXPECT_EQ(s.b, -1);
        }
        EXPECT_EQ(on.gateSites(), off.gateSites() + 7);
        EXPECT_EQ(on.moveSites(), off.moveSites());
        EXPECT_TRUE(sameEstimate(on.tally, off.tally));
        if (semantics == CorrectionSemantics::DiscardOnSyndrome) {
            EXPECT_EQ(off.gateSites(), 163u);
            EXPECT_EQ(on.gateSites(), 170u);
        }
    }
}

TEST(BatchAncillaSim, Pi8ZeroStratumIsItsFixUpFailureRate)
{
    // A trial with no fault among the coin-off path's sites still
    // fails when the coin is on and two fix-up faults leave a
    // logical error. The stratified estimate's exact (0,0) rate must
    // match batches planned with zero faults there.
    ErrorParams errors;
    errors.pGate = 1e-2;
    errors.pMove = 1e-4;
    BatchAncillaSim sim(errors, kFig11Movement, 7);
    ImportanceConfig config;
    config.maxFaults = 0;
    const StratifiedEstimate est = sim.estimateStratifiedPi8(config);
    ASSERT_EQ(est.strata.size(), 1u);
    const StratumEstimate &zero = est.strata.front();
    ASSERT_TRUE(zero.analytic);
    EXPECT_EQ(zero.interval().lo, zero.rate());
    EXPECT_EQ(zero.interval().hi, zero.rate());

    const auto worker = makeBatchWorker(
        simd::Width::W64, errors, kFig11Movement,
        CorrectionSemantics::DiscardOnSyndrome, 64);
    const FaultPlan plan{est.gateSites, est.moveSites, 0, 0};
    PrepEstimate tally;
    const int batches = 100;
    Rng seeds(11);
    for (int b = 0; b < batches; ++b)
        worker->runBatch(Rng(seeds()), ZeroPrepStrategy::VerifyAndCorrect,
                         true, 4096, plan, tally);
    // A 4-sigma interval: a false alarm once in ~16,000 seeds.
    const Interval ci =
        wilsonInterval(tally.failures, 4096u * batches, 4.0);
    EXPECT_TRUE(ci.contains(zero.rate()))
        << zero.rate() << " outside [" << ci.lo << ", " << ci.hi << "]";
    EXPECT_FALSE(ci.contains(0.0));
}

// ---------------------------------------------------------------
// Planned batches: where a FaultPlan puts each trial's faults.
// ---------------------------------------------------------------

/** A circuit the planned-batch checks run. */
struct PlannedCircuit
{
    ZeroPrepStrategy strategy;
    bool pi8;
    const char *name;
};

const PlannedCircuit kPlannedCircuits[] = {
    {ZeroPrepStrategy::Basic, false, "basic"},
    {ZeroPrepStrategy::VerifyOnly, false, "verify_only"},
    {ZeroPrepStrategy::CorrectOnly, false, "correct_only"},
    {ZeroPrepStrategy::VerifyAndCorrect, false, "verify_and_correct"},
    {ZeroPrepStrategy::VerifyAndCorrect, true, "pi8"},
};

const CorrectionSemantics kBothSemantics[] = {
    CorrectionSemantics::DiscardOnSyndrome,
    CorrectionSemantics::ApplyFix};

const int kPlannedWords[] = {1, 3, 64};

/** Run a full batch and a partial one under `plan`; their tallies. */
PrepEstimate
plannedTallies(BatchWorkerBase &worker, const PlannedCircuit &c,
               int words, const FaultPlan &plan, Rng &seeds)
{
    PrepEstimate tally;
    for (int trials : {64 * words, 64 * words - 25})
        worker.runBatch(Rng(seeds()), c.strategy, c.pi8, trials, plan,
                        tally);
    return tally;
}

/**
 * Every planned batch shape's exact tallies at elevated noise: any
 * change to where a plan puts a trial's faults, which Pauli kinds it
 * draws or where the trial turns natural moves some of them. Per
 * circuit and semantics, seven plans: the six strata below, then
 * (2,2) planned over half the nominal sites, where trials turn
 * natural mid-path; per plan, words per qubit 1, 3 and 64, each a
 * full batch and a partial one.
 */
TEST(PlannedBatch, TalliesPinnedPerCircuitPlanAndShape)
{
    struct Tallies
    {
        std::uint64_t failures, discards, verifyTrials,
            correctionTrials, correctionDiscards;
    };
    static const Tallies kPinned[][3] = {
        // basic, discard
        {{0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}},
        {{31, 0, 0, 0, 0}, {115, 0, 0, 0, 0}, {2613, 0, 0, 0, 0}},
        {{41, 0, 0, 0, 0}, {122, 0, 0, 0, 0}, {2855, 0, 0, 0, 0}},
        {{63, 0, 0, 0, 0}, {265, 0, 0, 0, 0}, {5628, 0, 0, 0, 0}},
        {{68, 0, 0, 0, 0}, {248, 0, 0, 0, 0}, {5667, 0, 0, 0, 0}},
        {{76, 0, 0, 0, 0}, {257, 0, 0, 0, 0}, {5503, 0, 0, 0, 0}},
        {{72, 0, 0, 0, 0}, {218, 0, 0, 0, 0}, {5103, 0, 0, 0, 0}},
        // basic, apply-fix
        {{0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}},
        {{38, 0, 0, 0, 0}, {112, 0, 0, 0, 0}, {2523, 0, 0, 0, 0}},
        {{31, 0, 0, 0, 0}, {116, 0, 0, 0, 0}, {2879, 0, 0, 0, 0}},
        {{79, 0, 0, 0, 0}, {248, 0, 0, 0, 0}, {5623, 0, 0, 0, 0}},
        {{75, 0, 0, 0, 0}, {257, 0, 0, 0, 0}, {5737, 0, 0, 0, 0}},
        {{67, 0, 0, 0, 0}, {249, 0, 0, 0, 0}, {5539, 0, 0, 0, 0}},
        {{64, 0, 0, 0, 0}, {228, 0, 0, 0, 0}, {5066, 0, 0, 0, 0}},
        // verify_only, discard
        {{0, 0, 103, 0, 0}, {0, 0, 359, 0, 0}, {0, 0, 8167, 0, 0}},
        {{22, 40, 143, 0, 0}, {70, 141, 500, 0, 0}, {1451, 3365, 11532, 0, 0}},
        {{18, 45, 148, 0, 0}, {53, 158, 517, 0, 0}, {1301, 3478, 11645, 0, 0}},
        {{30, 55, 158, 0, 0}, {121, 190, 549, 0, 0}, {2720, 4154, 12321, 0, 0}},
        {{40, 50, 153, 0, 0}, {116, 182, 541, 0, 0}, {2673, 4172, 12339, 0, 0}},
        {{28, 63, 166, 0, 0}, {136, 170, 529, 0, 0}, {2654, 4301, 12468, 0, 0}},
        {{41, 49, 152, 0, 0}, {95, 186, 545, 0, 0}, {2622, 3867, 12034, 0, 0}},
        // verify_only, apply-fix
        {{0, 0, 103, 0, 0}, {0, 0, 359, 0, 0}, {0, 0, 8167, 0, 0}},
        {{20, 31, 134, 0, 0}, {60, 137, 496, 0, 0}, {1477, 3222, 11389, 0, 0}},
        {{14, 47, 150, 0, 0}, {62, 133, 492, 0, 0}, {1329, 3479, 11646, 0, 0}},
        {{42, 51, 154, 0, 0}, {124, 182, 541, 0, 0}, {2642, 4208, 12375, 0, 0}},
        {{34, 60, 163, 0, 0}, {110, 199, 558, 0, 0}, {2663, 4238, 12405, 0, 0}},
        {{37, 50, 153, 0, 0}, {131, 186, 545, 0, 0}, {2696, 4250, 12417, 0, 0}},
        {{38, 44, 147, 0, 0}, {120, 157, 516, 0, 0}, {2622, 3936, 12103, 0, 0}},
        // correct_only, discard
        {{0, 0, 0, 206, 0}, {0, 0, 0, 718, 0}, {0, 0, 0, 16334, 0}},
        {{0, 0, 0, 349, 94}, {3, 0, 0, 1241, 333}, {66, 0, 0, 28421, 7595}},
        {{0, 0, 0, 381, 111}, {5, 0, 0, 1240, 334}, {116, 0, 0, 28410, 7636}},
        {{1, 0, 0, 441, 170}, {2, 0, 0, 1542, 641}, {66, 0, 0, 34691, 14280}},
        {{2, 0, 0, 435, 180}, {1, 0, 0, 1503, 605}, {62, 0, 0, 34656, 14120}},
        {{0, 0, 0, 437, 171}, {8, 0, 0, 1540, 655}, {87, 0, 0, 34726, 14429}},
        {{0, 0, 0, 352, 124}, {0, 0, 0, 1206, 420}, {23, 0, 0, 27432, 9447}},
        // correct_only, apply-fix
        {{0, 0, 0, 206, 0}, {0, 0, 0, 718, 0}, {0, 0, 0, 16334, 0}},
        {{9, 0, 0, 206, 0}, {30, 0, 0, 718, 0}, {765, 0, 0, 16334, 0}},
        {{9, 0, 0, 206, 0}, {36, 0, 0, 718, 0}, {827, 0, 0, 16334, 0}},
        {{50, 0, 0, 206, 0}, {186, 0, 0, 718, 0}, {4107, 0, 0, 16334, 0}},
        {{61, 0, 0, 206, 0}, {195, 0, 0, 718, 0}, {4247, 0, 0, 16334, 0}},
        {{50, 0, 0, 206, 0}, {163, 0, 0, 718, 0}, {3991, 0, 0, 16334, 0}},
        {{27, 0, 0, 206, 0}, {109, 0, 0, 718, 0}, {2123, 0, 0, 16334, 0}},
        // verify_and_correct, discard
        {{0, 0, 309, 206, 0}, {0, 0, 1077, 718, 0}, {0, 0, 24501, 16334, 0}},
        {{0, 37, 541, 331, 70}, {0, 128, 1873, 1139, 247},
         {0, 3025, 41917, 25407, 5318}},
        {{0, 34, 554, 341, 76}, {0, 132, 1796, 1091, 214},
         {0, 2944, 42329, 25767, 5451}},
        {{1, 106, 733, 392, 132}, {1, 416, 2522, 1333, 414},
         {37, 9122, 57267, 30414, 9564}},
        {{0, 111, 730, 390, 126}, {0, 377, 2468, 1316, 416},
         {46, 8849, 57371, 30576, 9779}},
        {{1, 140, 739, 377, 119}, {4, 397, 2554, 1363, 435},
         {46, 9392, 57814, 30591, 9664}},
        {{0, 105, 633, 334, 91}, {1, 348, 2176, 1162, 307},
         {7, 8022, 49911, 26570, 7152}},
        // verify_and_correct, apply-fix
        {{0, 0, 412, 309, 0}, {0, 0, 1436, 1077, 0}, {0, 0, 32668, 24501, 0}},
        {{0, 26, 499, 370, 0}, {3, 121, 1705, 1225, 0},
         {23, 2556, 39252, 28529, 0}},
        {{0, 32, 475, 340, 0}, {0, 105, 1686, 1222, 0},
         {19, 2590, 38776, 28019, 0}},
        {{14, 105, 613, 405, 0}, {49, 371, 2146, 1416, 0},
         {1180, 8564, 48543, 31812, 0}},
        {{13, 107, 606, 396, 0}, {35, 390, 2158, 1409, 0},
         {1136, 8488, 48664, 32009, 0}},
        {{13, 124, 625, 398, 0}, {55, 374, 2144, 1411, 0},
         {1185, 8804, 48460, 31489, 0}},
        {{12, 108, 543, 332, 0}, {34, 360, 1879, 1160, 0},
         {721, 8085, 42698, 26446, 0}},
        // pi8, discard
        {{0, 0, 309, 206, 0}, {0, 0, 1077, 718, 0}, {0, 0, 24501, 16334, 0}},
        {{5, 25, 478, 298, 52}, {5, 95, 1551, 954, 143},
         {237, 1978, 36411, 22611, 3655}},
        {{3, 31, 464, 284, 46}, {16, 89, 1589, 984, 157},
         {237, 2049, 36991, 22941, 3834}},
        {{4, 128, 795, 422, 142}, {14, 403, 2680, 1448, 470},
         {236, 9171, 61183, 32993, 10852}},
        {{5, 111, 788, 432, 142}, {18, 367, 2706, 1475, 505},
         {277, 9057, 61125, 32965, 10936}},
        {{1, 119, 768, 415, 131}, {10, 380, 2755, 1506, 510},
         {252, 9321, 62039, 33448, 11103}},
        {{1, 101, 671, 357, 110}, {4, 321, 2310, 1252, 378},
         {90, 8406, 52585, 27902, 8110}},
        // pi8, apply-fix
        {{0, 0, 412, 309, 0}, {0, 0, 1436, 1077, 0}, {0, 0, 32668, 24501, 0}},
        {{3, 24, 470, 343, 0}, {11, 75, 1633, 1199, 0},
         {207, 1934, 37541, 27440, 0}},
        {{2, 23, 468, 342, 0}, {9, 79, 1636, 1198, 0},
         {200, 1964, 37263, 27132, 0}},
        {{19, 94, 625, 428, 0}, {74, 371, 2231, 1501, 0},
         {1536, 8393, 50062, 33502, 0}},
        {{21, 107, 641, 431, 0}, {74, 300, 2201, 1542, 0},
         {1512, 8293, 50816, 34356, 0}},
        {{24, 102, 619, 414, 0}, {72, 355, 2191, 1477, 0},
         {1622, 8562, 50120, 33391, 0}},
        {{5, 112, 561, 346, 0}, {41, 403, 1954, 1192, 0},
         {1027, 8595, 43692, 26930, 0}},
    };
    ErrorParams errors;
    errors.pGate = 2e-3;
    errors.pMove = 1e-4;
    const std::pair<int, int> strata[] = {{0, 0}, {1, 0}, {0, 1},
                                          {2, 2}, {4, 0}, {0, 4},
                                          {2, 2}};
    Rng seeds(2026);
    std::size_t row = 0;
    for (const PlannedCircuit &c : kPlannedCircuits) {
        for (CorrectionSemantics semantics : kBothSemantics) {
            std::unique_ptr<BatchWorkerBase> workers[3];
            for (int i = 0; i < 3; ++i)
                workers[i] = makeBatchWorker(simd::Width::W64, errors,
                                             kFig11Movement, semantics,
                                             kPlannedWords[i]);
            const NominalPath path =
                workers[0]->probe(c.strategy, c.pi8, false);
            for (std::size_t p = 0; p < std::size(strata); ++p) {
                const bool half = p + 1 == std::size(strata);
                const FaultPlan plan{
                    half ? path.gateSites() / 2 : path.gateSites(),
                    half ? path.moveSites() / 2 : path.moveSites(),
                    strata[p].first, strata[p].second};
                ASSERT_LT(row, std::size(kPinned));
                for (int i = 0; i < 3; ++i) {
                    const PrepEstimate got = plannedTallies(
                        *workers[i], c, kPlannedWords[i], plan, seeds);
                    const Tallies &want = kPinned[row][i];
                    EXPECT_TRUE(got.failures == want.failures
                                && got.discards == want.discards
                                && got.verifyTrials == want.verifyTrials
                                && got.correctionTrials
                                    == want.correctionTrials
                                && got.correctionDiscards
                                    == want.correctionDiscards)
                        << c.name << ' '
                        << (semantics == CorrectionSemantics::ApplyFix
                                ? "apply-fix"
                                : "discard")
                        << " plan (" << plan.gateFaults << ","
                        << plan.moveFaults << ") of (" << plan.gateSites
                        << "," << plan.moveSites << ") words "
                        << kPlannedWords[i] << ": got {" << got.failures
                        << ", " << got.discards << ", "
                        << got.verifyTrials << ", "
                        << got.correctionTrials << ", "
                        << got.correctionDiscards << "}";
                }
                ++row;
            }
        }
    }
    EXPECT_EQ(row, std::size(kPinned));
}

ErrorParams
noiseless()
{
    ErrorParams errors;
    errors.pGate = 0;
    errors.pMove = 0;
    return errors;
}

TEST(PlannedBatch, ZeroFaultPlanWithoutNoiseWalksTheNominalPath)
{
    // No planned fault and no natural one: every trial walks the
    // nominal path, so the tallies are the probe's times the trials,
    // whatever the seed.
    Rng seeds(7);
    for (const PlannedCircuit &c : kPlannedCircuits) {
        for (CorrectionSemantics semantics : kBothSemantics) {
            for (int words : kPlannedWords) {
                const auto worker =
                    makeBatchWorker(simd::Width::W64, noiseless(),
                                    kFig11Movement, semantics, words);
                const NominalPath path =
                    worker->probe(c.strategy, c.pi8, false);
                const FaultPlan plan{path.gateSites(),
                                     path.moveSites(), 0, 0};
                const PrepEstimate got =
                    plannedTallies(*worker, c, words, plan, seeds);
                const std::uint64_t trials =
                    static_cast<std::uint64_t>(128 * words - 25);
                const std::string what = std::string(c.name) + ' '
                    + (semantics == CorrectionSemantics::ApplyFix
                           ? "apply-fix"
                           : "discard")
                    + " words " + std::to_string(words);
                EXPECT_EQ(got.failures, 0u) << what;
                EXPECT_EQ(got.discards, 0u) << what;
                EXPECT_EQ(got.correctionDiscards, 0u) << what;
                EXPECT_EQ(got.verifyTrials,
                          trials * path.tally.verifyTrials)
                    << what;
                EXPECT_EQ(got.correctionTrials,
                          trials * path.tally.correctionTrials)
                    << what;
            }
        }
    }
}

TEST(PlannedBatch, OneFaultNeverFailsVerifyAndCorrect)
{
    // Verified and corrected preparation is fault-tolerant: a single
    // fault, wherever a plan puts it, cannot leave a logical error.
    // Without noise every fault is a planned one, so a trial that
    // fails here met two, whatever the seed. Two planned faults do
    // fail, which shows the faults land.
    const auto failures = [](const MovementModel &movement,
                             CorrectionSemantics semantics, int gate,
                             int move, int batches) {
        const auto worker = makeBatchWorker(
            simd::Width::W64, noiseless(), movement, semantics, 64);
        const NominalPath path = worker->probe(
            ZeroPrepStrategy::VerifyAndCorrect, false, false);
        const FaultPlan plan{path.gateSites(), path.moveSites(), gate,
                             move};
        PrepEstimate tally;
        Rng seeds(static_cast<std::uint64_t>(31 * gate + move));
        for (int b = 0; b < batches; ++b)
            worker->runBatch(Rng(seeds()),
                             ZeroPrepStrategy::VerifyAndCorrect, false,
                             4096, plan, tally);
        return tally.failures;
    };
    for (const MovementModel &movement :
         {MovementModel{}, kFig11Movement}) {
        for (CorrectionSemantics semantics : kBothSemantics) {
            const std::string what =
                (semantics == CorrectionSemantics::ApplyFix
                     ? "apply-fix"
                     : "discard")
                + std::string(", movesPerCx ")
                + std::to_string(movement.movesPerCx);
            // 25 batches: 102,400 trials per plan.
            EXPECT_EQ(failures(movement, semantics, 1, 0, 25), 0u)
                << what << ", plan (1,0)";
            EXPECT_EQ(failures(movement, semantics, 0, 1, 25), 0u)
                << what << ", plan (0,1)";
            EXPECT_GT(failures(movement, semantics, 2, 0, 5), 0u)
                << what << ", plan (2,0)";
        }
    }
}

// ---------------------------------------------------------------
// Determinism: fixed seed + trial count => identical estimates,
// independent of threading and repeatable across instances.
// ---------------------------------------------------------------


bool
sameStratified(const StratifiedEstimate &a, const StratifiedEstimate &b)
{
    if (a.gateSites != b.gateSites || a.moveSites != b.moveSites
        || a.totalTrials != b.totalTrials
        || a.strata.size() != b.strata.size())
        return false;
    for (std::size_t i = 0; i < a.strata.size(); ++i) {
        if (a.strata[i].trials != b.strata[i].trials
            || a.strata[i].failures != b.strata[i].failures)
            return false;
    }
    return true;
}

/** A stratified run small enough to repeat across shapes. */
ImportanceConfig
smallStrata(std::uint64_t trialsPerStratum)
{
    ImportanceConfig config;
    config.maxFaults = 2;
    config.trialsPerStratum = trialsPerStratum;
    return config;
}

TEST(BatchAncillaSim, BitReproducibleAcrossThreadCounts)
{
    const std::uint64_t trials = 300000;
    for (auto strat : {ZeroPrepStrategy::VerifyAndCorrect,
                       ZeroPrepStrategy::VerifyOnly}) {
        // 0 = every core (resolveThreads).
        PrepEstimate results[4];
        StratifiedEstimate strata[4];
        const int thread_counts[4] = {1, 2, 4, 0};
        for (int i = 0; i < 4; ++i) {
            BatchSimConfig config;
            config.threads = thread_counts[i];
            BatchAncillaSim sim(ErrorParams::paper(),
                                MovementModel{}, 99,
                                CorrectionSemantics::
                                    DiscardOnSyndrome,
                                config);
            results[i] = sim.estimate(strat, trials);
            strata[i] = sim.estimateStratified(strat, smallStrata(5000));
        }
        for (int i = 1; i < 4; ++i) {
            EXPECT_TRUE(sameEstimate(results[0], results[i]))
                << zeroPrepStrategyName(strat) << " 1 vs "
                << thread_counts[i] << " threads";
            EXPECT_TRUE(sameStratified(strata[0], strata[i]))
                << zeroPrepStrategyName(strat) << " stratified 1 vs "
                << thread_counts[i] << " threads";
        }
    }
}

TEST(BatchAncillaSim, ReproducibleAcrossInstancesAndFreshPerCall)
{
    BatchAncillaSim a(ErrorParams::paper(), MovementModel{}, 5);
    BatchAncillaSim b(ErrorParams::paper(), MovementModel{}, 5);
    const PrepEstimate ea =
        a.estimate(ZeroPrepStrategy::Basic, 100000);
    const PrepEstimate eb =
        b.estimate(ZeroPrepStrategy::Basic, 100000);
    EXPECT_TRUE(sameEstimate(ea, eb));

    // A second call on the same instance draws a fresh run seed:
    // same statistics, different trials.
    const PrepEstimate ea2 =
        a.estimate(ZeroPrepStrategy::Basic, 100000);
    EXPECT_TRUE(overlap(ea.errorInterval(), ea2.errorInterval()));
}

TEST(BatchAncillaSim, Pi8BitReproducibleAcrossThreadCounts)
{
    PrepEstimate results[3];
    const int thread_counts[3] = {1, 3, 0};
    for (int i = 0; i < 3; ++i) {
        BatchSimConfig config;
        config.threads = thread_counts[i];
        BatchAncillaSim sim(
            ErrorParams::paper(), MovementModel{}, 17,
            CorrectionSemantics::DiscardOnSyndrome, config);
        results[i] = sim.estimatePi8(200000);
    }
    EXPECT_TRUE(sameEstimate(results[0], results[1]));
    EXPECT_TRUE(sameEstimate(results[0], results[2]));
}

TEST(BatchAncillaSim, RejectsFewerThanOneWordPerQubit)
{
    // A config built in C++ never meets the JSON range check; zero
    // or negative words per qubit used to run as one.
    for (int words : {0, -5}) {
        BatchSimConfig config;
        config.wordsPerQubit = words;
        try {
            BatchAncillaSim sim(ErrorParams::paper(), MovementModel{},
                                1, CorrectionSemantics::
                                       DiscardOnSyndrome,
                                config);
            ADD_FAILURE() << "expected std::invalid_argument for "
                          << words << " words";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("wordsPerQubit"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------
// RareBernoulliStream: the geometric-renewal bit stream feeding
// the batch injection sites.
// ---------------------------------------------------------------

TEST(RareBernoulliStream, EdgeProbabilities)
{
    Rng rng(2);
    RareBernoulliStream never(0.0);
    never.reset(rng);
    never.window(rng, 8, [](int, std::uint64_t) { FAIL(); });

    RareBernoulliStream always(1.0);
    always.reset(rng);
    int visited = 0;
    always.window(rng, 8, [&](int w, std::uint64_t bits) {
        EXPECT_EQ(w, visited++);
        EXPECT_EQ(bits, ~std::uint64_t{0});
    });
    EXPECT_EQ(visited, 8);
}

TEST(RareBernoulliStream, MeanMatchesPAcrossScales)
{
    for (double p : {0.3, 0.02, 1e-3, 1e-5}) {
        Rng rng(0x5eed);
        RareBernoulliStream stream(p);
        stream.reset(rng);
        const int words = 64;
        const std::uint64_t windows =
            p >= 1e-3 ? 2000 : 200000;
        std::uint64_t ones = 0;
        for (std::uint64_t i = 0; i < windows; ++i) {
            stream.window(rng, words, [&](int, std::uint64_t bits) {
                ones += static_cast<std::uint64_t>(
                    __builtin_popcountll(bits));
            });
        }
        const std::uint64_t total = windows * 64ull * words;
        const double mean =
            static_cast<double>(ones) / static_cast<double>(total);
        const double sigma =
            std::sqrt(p * (1 - p) / static_cast<double>(total));
        EXPECT_NEAR(mean, p, 5 * sigma + 1e-12) << "p=" << p;
    }
}

TEST(RareBernoulliStream, WindowPartitionDoesNotChangeTheStream)
{
    // The stream is a renewal process over a flat bit sequence:
    // chopping it into differently sized windows must reproduce
    // the exact same bit positions (this is what makes the batch
    // engine's RNG consumption independent of batch shape).
    const double p = 0.01;
    const int total_words = 96;
    std::vector<std::uint64_t> reference(total_words, 0);
    {
        Rng rng(77);
        RareBernoulliStream stream(p);
        stream.reset(rng);
        stream.window(rng, total_words,
                      [&](int w, std::uint64_t bits) {
                          reference[static_cast<std::size_t>(w)] =
                              bits;
                      });
    }
    for (int chunk : {1, 3, 32}) {
        Rng rng(77);
        RareBernoulliStream stream(p);
        stream.reset(rng);
        std::vector<std::uint64_t> got(total_words, 0);
        for (int base = 0; base < total_words; base += chunk) {
            const int words =
                std::min(chunk, total_words - base);
            stream.window(rng, words,
                          [&](int w, std::uint64_t bits) {
                              got[static_cast<std::size_t>(
                                  base + w)] = bits;
                          });
        }
        EXPECT_EQ(got, reference) << "chunk=" << chunk;
    }
}

// ---------------------------------------------------------------
// SIMD width dispatch: every width is the same engine.
// ---------------------------------------------------------------

TEST(SimdWidth, ParseAndNameRoundTrip)
{
    for (simd::Width w :
         {simd::Width::Auto, simd::Width::W64, simd::Width::W128,
          simd::Width::W256, simd::Width::W512}) {
        simd::Width parsed;
        ASSERT_TRUE(simd::parseWidth(simd::widthName(w), &parsed));
        EXPECT_EQ(parsed, w);
    }
    simd::Width parsed;
    EXPECT_FALSE(simd::parseWidth("scalar", &parsed));
    EXPECT_FALSE(simd::parseWidth("wide", &parsed));
    EXPECT_FALSE(simd::parseWidth("", &parsed));
}

TEST(SimdWidth, ResolveHonorsForceEnvAndRejectsJunk)
{
    ASSERT_EQ(setenv("QC_FORCE_WIDTH", "128", 1), 0);
    EXPECT_EQ(simd::resolveWidth(simd::Width::Auto),
              simd::Width::W128);
    ASSERT_EQ(setenv("QC_FORCE_WIDTH", "bogus", 1), 0);
    EXPECT_THROW(simd::resolveWidth(simd::Width::Auto),
                 std::runtime_error);
    ASSERT_EQ(unsetenv("QC_FORCE_WIDTH"), 0);
    // An explicit width wins over the environment.
    EXPECT_EQ(simd::resolveWidth(simd::Width::W64),
              simd::Width::W64);
    // Auto resolves to something the machine can actually run.
    EXPECT_TRUE(
        simd::widthSupported(simd::resolveWidth(simd::Width::Auto)));
}

/**
 * The width invariant: every SIMD width produces bit-identical
 * tallies over the full estimate / estimatePi8 surface, because all
 * RNG consumption is ordered per 64-bit stream word and only
 * pure-bitwise loops are blocked by the lane count.
 */
TEST(SimdWidth, CrossWidthBitIdentityOverFullSurface)
{
    const simd::Width widths[] = {simd::Width::W64, simd::Width::W128,
                                  simd::Width::W256,
                                  simd::Width::W512};
    for (auto semantics :
         {CorrectionSemantics::DiscardOnSyndrome,
          CorrectionSemantics::ApplyFix}) {
        for (auto strat :
             {ZeroPrepStrategy::Basic,
              ZeroPrepStrategy::VerifyAndCorrect}) {
            PrepEstimate ref, refPi8;
            StratifiedEstimate refStrata, refStrataPi8;
            bool first = true;
            for (simd::Width w : widths) {
                if (!simd::widthSupported(w))
                    continue;
                BatchSimConfig config;
                config.width = w;
                BatchAncillaSim sim(ErrorParams::paper(),
                                    MovementModel{}, 0x51dd,
                                    semantics, config);
                EXPECT_EQ(sim.resolvedWidth(), w);
                const PrepEstimate est =
                    sim.estimate(strat, 150000);
                const PrepEstimate pi8 = sim.estimatePi8(50000);
                const StratifiedEstimate strata =
                    sim.estimateStratified(strat, smallStrata(3000));
                const StratifiedEstimate strataPi8 =
                    sim.estimateStratifiedPi8(smallStrata(3000));
                if (first) {
                    ref = est;
                    refPi8 = pi8;
                    refStrata = strata;
                    refStrataPi8 = strataPi8;
                    first = false;
                    continue;
                }
                EXPECT_TRUE(sameEstimate(ref, est))
                    << zeroPrepStrategyName(strat) << " width "
                    << simd::widthName(w);
                EXPECT_TRUE(sameEstimate(refPi8, pi8))
                    << "pi8 width " << simd::widthName(w);
                EXPECT_TRUE(sameStratified(refStrata, strata))
                    << zeroPrepStrategyName(strat)
                    << " stratified width " << simd::widthName(w);
                EXPECT_TRUE(sameStratified(refStrataPi8, strataPi8))
                    << "pi8 stratified width " << simd::widthName(w);
            }
        }
    }
}

TEST(SimdWidth, OddBatchShapesStayBitIdenticalAcrossWidths)
{
    // Word counts that leave a 1-word tail at every vector width
    // (words % kLanes != 0) must not change results either.
    for (int words : {1, 3, 7}) {
        PrepEstimate ref;
        StratifiedEstimate refStrata;
        bool first = true;
        for (simd::Width w :
             {simd::Width::W64, simd::Width::W128,
              simd::Width::W256, simd::Width::W512}) {
            if (!simd::widthSupported(w))
                continue;
            BatchSimConfig config;
            config.width = w;
            config.wordsPerQubit = words;
            BatchAncillaSim sim(
                ErrorParams::paper(), MovementModel{}, 0xbee,
                CorrectionSemantics::DiscardOnSyndrome, config);
            const PrepEstimate est = sim.estimate(
                ZeroPrepStrategy::VerifyAndCorrect, 20000);
            const StratifiedEstimate strata = sim.estimateStratified(
                ZeroPrepStrategy::VerifyAndCorrect, smallStrata(1000));
            if (first) {
                ref = est;
                refStrata = strata;
                first = false;
                continue;
            }
            EXPECT_TRUE(sameEstimate(ref, est))
                << "words=" << words << " width "
                << simd::widthName(w);
            EXPECT_TRUE(sameStratified(refStrata, strata))
                << "stratified words=" << words << " width "
                << simd::widthName(w);
        }
    }
}

} // namespace
} // namespace qc
