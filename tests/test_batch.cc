/**
 * @file
 * Tests for the bit-parallel batched Monte Carlo engine: masked
 * BatchPauliFrame algebra against the scalar PauliFrame,
 * statistical equivalence of BatchAncillaSim with the scalar
 * reference engine, and bit-reproducibility across thread counts.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "codes/SteaneCode.hh"
#include "common/Stats.hh"
#include "error/AncillaSim.hh"
#include "error/BatchAncillaSim.hh"
#include "error/BatchPauliFrame.hh"
#include "error/PauliFrame.hh"

namespace qc {
namespace {

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

    frame.inject1q(rng, certain, 0, &mask);
    for (int t = 0; t < 64; ++t) {
        const bool hit = ((frame.x(0)[0] | frame.z(0)[0]) >> t) & 1;
        EXPECT_EQ(hit, ((mask >> t) & 1) != 0) << "t=" << t;
    }

    frame.clear();
    frame.inject2q(rng, certain, 0, 1, &mask);
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
        frame.inject1q(rng, pctw, 0, &all);
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

TEST(BatchAncillaSim, MatchesScalarEngineForAllStrategies)
{
    const std::uint64_t scalar_trials = 150000;
    const std::uint64_t batch_trials = 1200000;
    for (auto semantics :
         {CorrectionSemantics::DiscardOnSyndrome,
          CorrectionSemantics::ApplyFix}) {
        for (auto strat :
             {ZeroPrepStrategy::Basic, ZeroPrepStrategy::VerifyOnly,
              ZeroPrepStrategy::CorrectOnly,
              ZeroPrepStrategy::VerifyAndCorrect}) {
            AncillaPrepSimulator scalar(ErrorParams::paper(),
                                        MovementModel{}, 0xabc,
                                        semantics);
            BatchAncillaSim batch(ErrorParams::paper(),
                                  MovementModel{}, 0xdef,
                                  semantics);
            const PrepEstimate s =
                scalar.estimateScalar(strat, scalar_trials);
            const PrepEstimate b =
                batch.estimate(strat, batch_trials);
            EXPECT_TRUE(overlap(s.errorInterval(),
                                b.errorInterval()))
                << zeroPrepStrategyName(strat) << " scalar ["
                << s.errorInterval().lo << ", "
                << s.errorInterval().hi << "] batch ["
                << b.errorInterval().lo << ", "
                << b.errorInterval().hi << "]";
            // Verification discard rates must agree as well.
            if (s.verifyTrials && b.verifyTrials) {
                EXPECT_TRUE(overlap(
                    wilsonInterval(s.discards, s.verifyTrials),
                    wilsonInterval(b.discards, b.verifyTrials)))
                    << zeroPrepStrategyName(strat);
            }
        }
    }
}

TEST(BatchAncillaSim, MatchesScalarEngineForPi8)
{
    AncillaPrepSimulator scalar(ErrorParams::paper(),
                                MovementModel{}, 0x314);
    BatchAncillaSim batch(ErrorParams::paper(), MovementModel{},
                          0x159);
    const PrepEstimate s = scalar.estimateScalarPi8(100000);
    const PrepEstimate b = batch.estimatePi8(800000);
    EXPECT_TRUE(overlap(s.errorInterval(), b.errorInterval()))
        << "scalar [" << s.errorInterval().lo << ", "
        << s.errorInterval().hi << "] batch ["
        << b.errorInterval().lo << ", " << b.errorInterval().hi
        << "]";
}

TEST(BatchAncillaSim, ZeroNoiseMeansZeroFailuresExactTallies)
{
    ErrorParams clean;
    clean.pGate = 0;
    clean.pMove = 0;
    BatchAncillaSim sim(clean, MovementModel{}, 3);
    // 100 is deliberately not a multiple of the 64-trial word
    // width: the partial-batch mask must keep tallies exact.
    const PrepEstimate est =
        sim.estimate(ZeroPrepStrategy::VerifyOnly, 100);
    EXPECT_EQ(est.trials, 100u);
    EXPECT_EQ(est.failures, 0u);
    EXPECT_EQ(est.discards, 0u);
    // Noiseless verification passes first try for every trial.
    EXPECT_EQ(est.verifyTrials, 100u);

    const PrepEstimate vc =
        sim.estimate(ZeroPrepStrategy::VerifyAndCorrect, 100);
    EXPECT_EQ(vc.failures, 0u);
    EXPECT_EQ(vc.correctionDiscards, 0u);
    // Bit and phase stage once per trial.
    EXPECT_EQ(vc.correctionTrials, 200u);

    EXPECT_EQ(sim.estimate(ZeroPrepStrategy::Basic, 0).trials, 0u);
}

// ---------------------------------------------------------------
// Determinism: fixed seed + trial count => identical estimates,
// independent of threading and repeatable across instances.
// ---------------------------------------------------------------

bool
sameEstimate(const PrepEstimate &a, const PrepEstimate &b)
{
    return a.trials == b.trials && a.failures == b.failures
        && a.discards == b.discards
        && a.verifyTrials == b.verifyTrials
        && a.correctionDiscards == b.correctionDiscards
        && a.correctionTrials == b.correctionTrials;
}

TEST(BatchAncillaSim, BitReproducibleAcrossThreadCounts)
{
    const std::uint64_t trials = 300000;
    for (auto strat : {ZeroPrepStrategy::VerifyAndCorrect,
                       ZeroPrepStrategy::VerifyOnly}) {
        // 0 = every core (resolveThreads).
        PrepEstimate results[4];
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
        }
        EXPECT_TRUE(sameEstimate(results[0], results[1]))
            << zeroPrepStrategyName(strat) << " 1 vs 2 threads";
        EXPECT_TRUE(sameEstimate(results[0], results[2]))
            << zeroPrepStrategyName(strat) << " 1 vs 4 threads";
        EXPECT_TRUE(sameEstimate(results[0], results[3]))
            << zeroPrepStrategyName(strat) << " 1 vs 0 threads";
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
                if (first) {
                    ref = est;
                    refPi8 = pi8;
                    first = false;
                    continue;
                }
                EXPECT_TRUE(sameEstimate(ref, est))
                    << zeroPrepStrategyName(strat) << " width "
                    << simd::widthName(w);
                EXPECT_TRUE(sameEstimate(refPi8, pi8))
                    << "pi8 width " << simd::widthName(w);
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
            if (first) {
                ref = est;
                first = false;
                continue;
            }
            EXPECT_TRUE(sameEstimate(ref, est))
                << "words=" << words << " width "
                << simd::widthName(w);
        }
    }
}

} // namespace
} // namespace qc
