/**
 * @file
 * Tests for the [[7,1,3]] code tables, the encoder schedule, the
 * fault-tolerance property of the verification operator, and the
 * encoded-operation model.
 *
 * The encoder/stabilizer checks use the dense state-vector
 * simulator: the Fig 3b circuit must produce a +1 eigenstate of all
 * six stabilizer generators and of logical Z.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "StateVector.hh"
#include "codes/ConcatenatedCode.hh"
#include "codes/EncodedOp.hh"
#include "codes/SteaneCode.hh"

namespace qc {
namespace {

using Mask = SteaneCode::Mask;
using sv::StateVector;

TEST(Steane, SyndromeOfSingleErrors)
{
    for (int q = 0; q < 7; ++q) {
        const Mask e = static_cast<Mask>(1u << q);
        EXPECT_EQ(SteaneCode::syndromeOf(e),
                  static_cast<unsigned>(q + 1));
    }
}

TEST(Steane, SyndromeOfStabilizersIsTrivial)
{
    for (Mask s : SteaneCode::stabilizers)
        EXPECT_EQ(SteaneCode::syndromeOf(s), 0u);
    EXPECT_EQ(SteaneCode::syndromeOf(SteaneCode::logicalMask), 0u);
}

TEST(Steane, CorrectionInvertsSingleErrors)
{
    for (int q = 0; q < 7; ++q) {
        const Mask e = static_cast<Mask>(1u << q);
        const Mask c =
            SteaneCode::correctionFor(SteaneCode::syndromeOf(e));
        EXPECT_EQ(c, e);
    }
}

TEST(Steane, SingleErrorsAreCorrectable)
{
    EXPECT_FALSE(SteaneCode::uncorrectable(0));
    for (int q = 0; q < 7; ++q) {
        EXPECT_FALSE(SteaneCode::uncorrectable(
            static_cast<Mask>(1u << q)));
    }
}

TEST(Steane, DoubleErrorsAreUncorrectable)
{
    // Distance 3: every weight-2 error decodes to a logical.
    for (int a = 0; a < 7; ++a) {
        for (int b = a + 1; b < 7; ++b) {
            const Mask e =
                static_cast<Mask>((1u << a) | (1u << b));
            EXPECT_TRUE(SteaneCode::uncorrectable(e))
                << "a=" << a << " b=" << b;
        }
    }
}

TEST(Steane, StabilizersAreNotErrors)
{
    for (Mask s : SteaneCode::stabilizers) {
        EXPECT_FALSE(SteaneCode::uncorrectable(s));
        EXPECT_EQ(SteaneCode::cosetMinWeight(s), 0);
    }
}

TEST(Steane, LogicalIsUncorrectable)
{
    EXPECT_TRUE(SteaneCode::uncorrectable(SteaneCode::logicalMask));
    EXPECT_TRUE(SteaneCode::badCoset(SteaneCode::logicalMask));
    EXPECT_EQ(SteaneCode::cosetMinWeight(SteaneCode::logicalMask), 3);
}

TEST(Steane, CosetWeightExamples)
{
    EXPECT_EQ(SteaneCode::cosetMinWeight(0), 0);
    EXPECT_EQ(SteaneCode::cosetMinWeight(Mask{0b0000011}), 2);
    // A stabilizer row missing one qubit is coset-equivalent to a
    // single error.
    const Mask row = SteaneCode::stabilizers[0];
    const Mask almost = static_cast<Mask>(row & ~Mask{1});
    EXPECT_EQ(SteaneCode::cosetMinWeight(almost), 1);
    EXPECT_FALSE(SteaneCode::badCoset(almost));
}

TEST(Steane, VerifyMaskIsLogicalZRepresentative)
{
    EXPECT_EQ(SteaneCode::syndromeOf(SteaneCode::verifyMask), 0u);
    EXPECT_TRUE(SteaneCode::parity(SteaneCode::verifyMask));
    EXPECT_EQ(__builtin_popcount(SteaneCode::verifyMask), 3);
}

TEST(Steane, ParityAwareFixLeavesStabilizerResidual)
{
    // The ApplyFix decode: for every possible readout word, the fix
    // matches both the Hamming syndrome and the logical parity, so
    // the residual is always a stabilizer — never a logical
    // operator. (The syndrome-only decode fails this for every
    // even-parity word with a non-trivial syndrome: it "completes"
    // a weight-2 error into a weight-3 logical.)
    for (unsigned e = 0; e < 128; ++e) {
        const auto m = static_cast<Mask>(e);
        const Mask fix = SteaneCode::fixFor(
            SteaneCode::syndromeOf(m), SteaneCode::parity(m));
        const auto residual = static_cast<Mask>(m ^ fix);
        EXPECT_EQ(SteaneCode::cosetMinWeight(residual), 0)
            << "readout=" << e;
        // The fix itself lives in the readout's coset.
        EXPECT_EQ(SteaneCode::syndromeOf(fix),
                  SteaneCode::syndromeOf(m));
        EXPECT_EQ(SteaneCode::parity(fix), SteaneCode::parity(m));
    }
    // Minimal weights per class: nothing, single flip, weight-2
    // even-parity pattern, weight-3 logical representative.
    EXPECT_EQ(SteaneCode::fixFor(0, false), 0);
    for (unsigned s = 1; s < 8; ++s) {
        EXPECT_EQ(__builtin_popcount(SteaneCode::fixFor(s, true)),
                  1);
        EXPECT_EQ(__builtin_popcount(SteaneCode::fixFor(s, false)),
                  2);
    }
    EXPECT_EQ(__builtin_popcount(SteaneCode::fixFor(0, true)), 3);
}

TEST(Steane, TransversalityClassification)
{
    // Section 2.1: CX, X, Y, Z, Phase, Hadamard transversal; pi/8
    // (and everything containing it) not.
    for (GateKind k : {GateKind::X, GateKind::Y, GateKind::Z,
                       GateKind::S, GateKind::Sdg, GateKind::H,
                       GateKind::CX, GateKind::CZ, GateKind::PrepZ,
                       GateKind::Measure}) {
        EXPECT_TRUE(SteaneCode::transversal(k)) << gateName(k);
    }
    for (GateKind k : {GateKind::T, GateKind::Tdg, GateKind::RotZ,
                       GateKind::CRotZ, GateKind::Toffoli}) {
        EXPECT_FALSE(SteaneCode::transversal(k)) << gateName(k);
    }
}

// ---------------------------------------------------------------
// Encoder circuit properties (state-vector level).
// ---------------------------------------------------------------

Circuit
encoderCircuit()
{
    Circuit c(7);
    for (int seed : SteaneCode::encoderSeeds)
        c.h(static_cast<Qubit>(seed));
    for (const auto &cx : SteaneCode::encoderCxs)
        c.cx(static_cast<Qubit>(cx.control),
             static_cast<Qubit>(cx.target));
    return c;
}

/** Apply X on every qubit in `mask`. */
void
applyXMask(Circuit &c, Mask mask)
{
    for (int q = 0; q < 7; ++q) {
        if (mask & (1u << q))
            c.x(static_cast<Qubit>(q));
    }
}

/** Apply Z on every qubit in `mask`. */
void
applyZMask(Circuit &c, Mask mask)
{
    for (int q = 0; q < 7; ++q) {
        if (mask & (1u << q))
            c.z(static_cast<Qubit>(q));
    }
}

TEST(SteaneEncoder, ProducesPlusOneEigenstateOfAllStabilizers)
{
    StateVector reference(7);
    reference.run(encoderCircuit());

    // X stabilizers.
    for (Mask s : SteaneCode::stabilizers) {
        Circuit c = encoderCircuit();
        applyXMask(c, s);
        StateVector sv(7);
        sv.run(c);
        EXPECT_NEAR(sv.overlap(reference), 1.0, 1e-9)
            << "X stabilizer " << int(s);
    }
    // Z stabilizers.
    for (Mask s : SteaneCode::stabilizers) {
        Circuit c = encoderCircuit();
        applyZMask(c, s);
        StateVector sv(7);
        sv.run(c);
        EXPECT_NEAR(sv.overlap(reference), 1.0, 1e-9)
            << "Z stabilizer " << int(s);
    }
}

TEST(SteaneEncoder, IsLogicalZeroState)
{
    StateVector reference(7);
    reference.run(encoderCircuit());
    // +1 eigenstate of logical Z (all-Z).
    Circuit c = encoderCircuit();
    applyZMask(c, SteaneCode::logicalMask);
    StateVector sv(7);
    sv.run(c);
    EXPECT_NEAR(sv.overlap(reference), 1.0, 1e-9);

    // Logical X flips it to an orthogonal state.
    Circuit cx = encoderCircuit();
    applyXMask(cx, SteaneCode::logicalMask);
    StateVector svx(7);
    svx.run(cx);
    EXPECT_NEAR(svx.overlap(reference), 0.0, 1e-9);
}

TEST(SteaneEncoder, RoundsActOnDisjointQubits)
{
    for (int round = 0; round < 3; ++round) {
        unsigned used = 0;
        for (const auto &cx : SteaneCode::encoderCxs) {
            if (cx.round != round)
                continue;
            const unsigned bits = (1u << cx.control)
                | (1u << cx.target);
            EXPECT_EQ(used & bits, 0u) << "round " << round;
            used |= bits;
        }
    }
}

/**
 * The fault-tolerance property behind the choice of verifyMask:
 * every X pattern reachable from a single X/Y fault anywhere in the
 * Basic-0 encoder must either be coset-equivalent to weight <= 1 or
 * anticommute with the verification operator (odd overlap). This is
 * the exhaustive single-fault enumeration promised in SteaneCode.hh.
 */
TEST(SteaneEncoder, SingleFaultXPatternsCaughtOrBenign)
{
    // Propagate an X error injected on qubit `fq` after `step` CX
    // rounds through the remaining rounds.
    for (int step = 0; step <= 3; ++step) {
        for (int fq = 0; fq < 7; ++fq) {
            Mask x = static_cast<Mask>(1u << fq);
            for (const auto &cx : SteaneCode::encoderCxs) {
                if (cx.round < step)
                    continue;
                if (x & (1u << cx.control))
                    x = static_cast<Mask>(x | (1u << cx.target));
            }
            const bool benign = !SteaneCode::badCoset(x);
            const bool caught = SteaneCode::parity(
                static_cast<Mask>(x & SteaneCode::verifyMask));
            EXPECT_TRUE(benign || caught)
                << "fault on q" << fq << " after round " << step
                << " escapes as pattern " << int(x);
        }
    }

    // Two-qubit X x X faults on each encoder CX, propagated through
    // the remaining rounds.
    for (std::size_t i = 0; i < SteaneCode::encoderCxs.size(); ++i) {
        const auto &site = SteaneCode::encoderCxs[i];
        Mask x = static_cast<Mask>((1u << site.control)
                                   | (1u << site.target));
        for (std::size_t j = i + 1; j < SteaneCode::encoderCxs.size();
             ++j) {
            const auto &cx = SteaneCode::encoderCxs[j];
            if (x & (1u << cx.control))
                x = static_cast<Mask>(x | (1u << cx.target));
        }
        const bool benign = !SteaneCode::badCoset(x);
        const bool caught = SteaneCode::parity(
            static_cast<Mask>(x & SteaneCode::verifyMask));
        EXPECT_TRUE(benign || caught)
            << "XX fault on CX " << i << " escapes as " << int(x);
    }
}

// ---------------------------------------------------------------
// Encoded-operation model.
// ---------------------------------------------------------------

class EncodedOpTest : public ::testing::Test
{
  protected:
    EncodedOpModel model_{IonTrapParams::paper()};

    static Gate
    gate1(GateKind kind)
    {
        Gate g;
        g.kind = kind;
        g.ops = {0, invalidQubit, invalidQubit};
        return g;
    }
};

TEST_F(EncodedOpTest, TransversalLatencies)
{
    EXPECT_EQ(model_.dataLatency(gate1(GateKind::H)), usec(1));
    EXPECT_EQ(model_.dataLatency(gate1(GateKind::Measure)), usec(50));
    Gate cx;
    cx.kind = GateKind::CX;
    cx.ops = {0, 1, invalidQubit};
    EXPECT_EQ(model_.dataLatency(cx), usec(10));
}

TEST_F(EncodedOpTest, QecInteractIs61Microseconds)
{
    // t2q + tmeas + t1q under Table 1.
    EXPECT_EQ(model_.qecInteractLatency(), usec(61));
}

TEST_F(EncodedOpTest, Pi8GateUsesInteractLatency)
{
    EXPECT_EQ(model_.dataLatency(gate1(GateKind::T)), usec(61));
    EXPECT_EQ(model_.dataLatency(gate1(GateKind::Tdg)), usec(61));
}

TEST_F(EncodedOpTest, ZeroPrepLatencyComposition)
{
    // encode (51+1+30) + verify (60) + two corrections (61 each).
    EXPECT_EQ(model_.zeroPrepLatency(), usec(264));
}

TEST_F(EncodedOpTest, Pi8PrepLongerThanZeroPrep)
{
    EXPECT_GT(model_.pi8PrepLatency(), model_.zeroPrepLatency());
}

TEST_F(EncodedOpTest, AncillaAccounting)
{
    EXPECT_EQ(model_.zeroAncillae(gate1(GateKind::H)), 2);
    EXPECT_EQ(model_.zeroAncillae(gate1(GateKind::T)), 2);
    EXPECT_EQ(model_.zeroAncillae(gate1(GateKind::Measure)), 0);
    EXPECT_EQ(model_.zeroAncillae(gate1(GateKind::PrepZ)), 1);
    EXPECT_EQ(model_.pi8Ancillae(gate1(GateKind::T)), 1);
    EXPECT_EQ(model_.pi8Ancillae(gate1(GateKind::Tdg)), 1);
    EXPECT_EQ(model_.pi8Ancillae(gate1(GateKind::H)), 0);
}

TEST_F(EncodedOpTest, QecFollowsUsefulGatesOnly)
{
    EXPECT_TRUE(model_.needsQec(GateKind::H));
    EXPECT_TRUE(model_.needsQec(GateKind::CX));
    EXPECT_TRUE(model_.needsQec(GateKind::T));
    EXPECT_FALSE(model_.needsQec(GateKind::Measure));
    EXPECT_FALSE(model_.needsQec(GateKind::PrepZ));
    EXPECT_FALSE(model_.needsQec(GateKind::PrepX));
}

TEST_F(EncodedOpTest, LoweredGatesRejected)
{
    EXPECT_DEATH(model_.dataLatency(gate1(GateKind::RotZ)),
                 "lowered");
}

TEST_F(EncodedOpTest, SymbolicInAlternativeTechnology)
{
    IonTrapParams fast;
    fast.t1q = usec(2);
    fast.t2q = usec(20);
    fast.tmeas = usec(100);
    fast.tprep = usec(10);
    EncodedOpModel m(fast);
    EXPECT_EQ(m.qecInteractLatency(), usec(122));
    EXPECT_EQ(m.dataLatency(gate1(GateKind::H)), usec(2));
}

// ---------------------------------------------------------------
// Recursive concatenation (ConcatenatedSteane). Closed-form values
// under the paper's Table 1/4 technology point.
// ---------------------------------------------------------------

TEST(ConcatenatedSteane, LevelValidation)
{
    EXPECT_NO_THROW(ConcatenatedSteane::validateLevel(1));
    EXPECT_NO_THROW(ConcatenatedSteane::validateLevel(2));
    EXPECT_THROW(ConcatenatedSteane::validateLevel(0),
                 std::invalid_argument);
    EXPECT_THROW(ConcatenatedSteane::validateLevel(3),
                 std::invalid_argument);
    try {
        ConcatenatedSteane::validateLevel(3);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The error must name the offending level and what is
        // modeled, so sweep configs fail loudly and clearly.
        const std::string what = e.what();
        EXPECT_NE(what.find("3"), std::string::npos);
        EXPECT_NE(what.find("level"), std::string::npos);
    }
}

TEST(ConcatenatedSteane, FootprintsGrowGeometrically)
{
    EXPECT_EQ(ConcatenatedSteane::physicalQubits(1), 7);
    EXPECT_EQ(ConcatenatedSteane::physicalQubits(2), 49);
    EXPECT_EQ(ConcatenatedSteane::tileArea(1), 1.0);
    EXPECT_EQ(ConcatenatedSteane::tileArea(2),
              static_cast<Area>(
                  ConcatenatedSteane::areaScalePerLevel));
}

TEST(ConcatenatedSteane, LevelOneEffectiveTechIsPhysical)
{
    const IonTrapParams tech = IonTrapParams::paper();
    const IonTrapParams eff =
        ConcatenatedSteane::effectiveTech(tech, 1);
    EXPECT_EQ(eff.t1q, tech.t1q);
    EXPECT_EQ(eff.t2q, tech.t2q);
    EXPECT_EQ(eff.tmeas, tech.tmeas);
    EXPECT_EQ(eff.tprep, tech.tprep);
    EXPECT_EQ(eff.tmove, tech.tmove);
    EXPECT_EQ(eff.tturn, tech.tturn);
}

TEST(ConcatenatedSteane, LevelTwoEffectiveTechClosedForm)
{
    // One recursion step under Table 1/4: qec(1) = 61 us, so
    // t1q(2) = 1 + 61, t2q(2) = 10 + 61; measurement is transversal
    // (decode is classical); a fresh level-1 zero is the full
    // Fig 4c rebuild (264 us); moves scale with the tile.
    const IonTrapParams eff = ConcatenatedSteane::effectiveTech(
        IonTrapParams::paper(), 2);
    EXPECT_EQ(eff.t1q, usec(62));
    EXPECT_EQ(eff.t2q, usec(71));
    EXPECT_EQ(eff.tmeas, usec(50));
    EXPECT_EQ(eff.tprep, usec(264));
    EXPECT_EQ(eff.tmove,
              ConcatenatedSteane::moveScalePerLevel * usec(1));
    EXPECT_EQ(eff.tturn, usec(10));
}

TEST(ConcatenatedSteane, LevelTwoEncodedOpModelComposes)
{
    // EncodedOpModel over the effective tech prices level-2 ops
    // with its unmodified formulas: qec(2) = 71 + 50 + 62 = 183 us,
    // and the level-2 zero prep is the Fig 4c schedule at level-2
    // latencies: 264 + 62 + 3*71 + (71+50) + 2*183 = 1026 us.
    const EncodedOpModel m2(ConcatenatedSteane::effectiveTech(
        IonTrapParams::paper(), 2));
    EXPECT_EQ(m2.qecInteractLatency(), usec(183));
    EXPECT_EQ(m2.zeroPrepLatency(), usec(1026));
    EXPECT_GT(m2.pi8PrepLatency(), m2.zeroPrepLatency());
}

TEST(ConcatenatedSteane, StepUpIsMonotoneInEveryLatency)
{
    const IonTrapParams t1 = IonTrapParams::paper();
    const IonTrapParams t2 = ConcatenatedSteane::stepUp(t1);
    EXPECT_GT(t2.t1q, t1.t1q);
    EXPECT_GT(t2.t2q, t1.t2q);
    EXPECT_GE(t2.tmeas, t1.tmeas);
    EXPECT_GT(t2.tprep, t1.tprep);
    EXPECT_GT(t2.tmove, t1.tmove);
}

} // namespace
} // namespace qc
