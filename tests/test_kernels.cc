/**
 * @file
 * Tests for the benchmark kernels: exact classical verification of
 * both adders over many random operand pairs, unitary-level
 * verification of the Toffoli and controlled-phase decompositions
 * and of small QFTs against the exact transform, and structural
 * checks on the lowering pass.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "ClassicalSim.hh"
#include "StateVector.hh"
#include "circuit/Dataflow.hh"
#include "common/Rng.hh"
#include "kernels/Adders.hh"
#include "kernels/Lower.hh"
#include "kernels/Qft.hh"
#include "kernels/Workloads.hh"

namespace qc {
namespace {

using classical::packBits;
using classical::runClassical;
using classical::unpackBits;
using sv::StateVector;

// ---------------------------------------------------------------
// Adder correctness (exact, classical).
// ---------------------------------------------------------------

struct AdderCase
{
    int bits;
    bool lookahead;
};

class AdderParamTest : public ::testing::TestWithParam<AdderCase>
{
};

TEST_P(AdderParamTest, AddsRandomOperandsExactly)
{
    const AdderCase param = GetParam();
    const AdderKernel kernel = param.lookahead
                                   ? makeQcla(param.bits)
                                   : makeQrca(param.bits);
    Rng rng(0xbeef + static_cast<std::uint64_t>(param.bits)
            + (param.lookahead ? 1000 : 0));
    const std::uint64_t mask =
        param.bits >= 64 ? ~0ull : (1ull << param.bits) - 1;

    for (int trial = 0; trial < 50; ++trial) {
        const std::uint64_t a = rng() & mask;
        const std::uint64_t b = rng() & mask;
        std::vector<bool> init(kernel.layout.numQubits, false);
        unpackBits(init, kernel.layout.aBase,
                   static_cast<Qubit>(param.bits), a);
        unpackBits(init, kernel.layout.bBase,
                   static_cast<Qubit>(param.bits), b);
        const auto fin = runClassical(kernel.circuit, init);

        const std::uint64_t sum =
            packBits(fin, kernel.layout.sumBase,
                     static_cast<Qubit>(param.bits));
        const bool carry = fin[kernel.layout.carryOut];
        const std::uint64_t expect = a + b;
        EXPECT_EQ(sum, expect & mask)
            << "a=" << a << " b=" << b << " bits=" << param.bits;
        EXPECT_EQ(carry, ((expect >> param.bits) & 1) != 0)
            << "a=" << a << " b=" << b;
        // Input register a must be preserved.
        EXPECT_EQ(packBits(fin, kernel.layout.aBase,
                           static_cast<Qubit>(param.bits)),
                  a);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, AdderParamTest,
    ::testing::Values(AdderCase{1, false}, AdderCase{2, false},
                      AdderCase{3, false}, AdderCase{5, false},
                      AdderCase{8, false}, AdderCase{16, false},
                      AdderCase{32, false}, AdderCase{2, true},
                      AdderCase{3, true}, AdderCase{4, true},
                      AdderCase{5, true}, AdderCase{8, true},
                      AdderCase{16, true}, AdderCase{32, true},
                      AdderCase{31, true}, AdderCase{17, true}),
    [](const ::testing::TestParamInfo<AdderCase> &info) {
        return std::string(info.param.lookahead ? "qcla" : "qrca")
            + std::to_string(info.param.bits);
    });

TEST(Qcla, CleansAllAncillae)
{
    const AdderKernel kernel = makeQcla(16);
    Rng rng(321);
    for (int trial = 0; trial < 20; ++trial) {
        const std::uint64_t a = rng() & 0xffff;
        const std::uint64_t b = rng() & 0xffff;
        std::vector<bool> init(kernel.layout.numQubits, false);
        unpackBits(init, kernel.layout.aBase, 16, a);
        unpackBits(init, kernel.layout.bBase, 16, b);
        const auto fin = runClassical(kernel.circuit, init);
        // b register restored, carries and tree ancillae zero.
        EXPECT_EQ(packBits(fin, kernel.layout.bBase, 16), b);
        for (Qubit q = 2 * 16; q < kernel.layout.sumBase; ++q)
            EXPECT_FALSE(fin[q]) << "dirty ancilla " << q;
        for (Qubit q = kernel.layout.sumBase
                 + kernel.layout.sumBits;
             q < kernel.layout.numQubits; ++q) {
            EXPECT_FALSE(fin[q]) << "dirty tree ancilla " << q;
        }
    }
}

TEST(Qrca, QubitCountMatchesPaper)
{
    // "two n-bit data inputs plus n+1 ancillae" (Section 3): 97
    // logical qubits for 32 bits.
    EXPECT_EQ(makeQrca(32).layout.numQubits, 97u);
}

TEST(Qcla, LogDepthBeatsRippleDepth)
{
    const Circuit rca = makeQrca(32).circuit;
    const Circuit cla = makeQcla(32).circuit;
    const auto rca_depth = DataflowGraph(rca).depth();
    const auto cla_depth = DataflowGraph(cla).depth();
    EXPECT_LT(cla_depth * 3, rca_depth)
        << "carry-lookahead should be several times shallower";
}

TEST(Qcla, ToffoliCountScalesLinearly)
{
    const auto c16 = makeQcla(16).circuit.census();
    const auto c32 = makeQcla(32).circuit.census();
    const double ratio =
        static_cast<double>(c32.of(GateKind::Toffoli))
        / static_cast<double>(c16.of(GateKind::Toffoli));
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 2.3);
}

// ---------------------------------------------------------------
// Unitary-level verification via the dense simulator.
// ---------------------------------------------------------------

TEST(StateVector, ToffoliDecompositionMatchesToffoli)
{
    FowlerSynth synth;
    for (std::uint64_t basis = 0; basis < 8; ++basis) {
        Circuit direct(3);
        direct.toffoli(0, 1, 2);
        Circuit lowered_src(3);
        lowered_src.toffoli(0, 1, 2);
        const Lowered low =
            lowerToFaultTolerant(lowered_src, synth);

        StateVector a(3, basis);
        a.run(direct);
        StateVector b(3, basis);
        b.run(low.circuit);
        EXPECT_NEAR(a.overlap(b), 1.0, 1e-9) << "basis " << basis;
    }
}

TEST(StateVector, ToffoliDecompositionOnSuperposition)
{
    FowlerSynth synth;
    Circuit direct(3);
    direct.h(0).h(1).h(2).toffoli(0, 1, 2);
    Circuit src(3);
    src.h(0).h(1).h(2).toffoli(0, 1, 2);
    const Lowered low = lowerToFaultTolerant(src, synth);
    StateVector a(3);
    a.run(direct);
    StateVector b(3);
    b.run(low.circuit);
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-9);
}

TEST(StateVector, ControlledPhaseDecompositionIsExactForCliffordParts)
{
    // CRotZ(k=1) is controlled-S; its decomposition uses exact T
    // gates, so equivalence must be exact.
    FowlerSynth synth;
    Circuit direct(2);
    direct.h(0).h(1).crotZ(0, 1, 1);
    Circuit src(2);
    src.h(0).h(1).crotZ(0, 1, 1);
    LoweringOptions opts;
    const Lowered low = lowerToFaultTolerant(src, synth, opts);
    StateVector a(2);
    a.run(direct);
    StateVector b(2);
    b.run(low.circuit);
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-9);
}

TEST(StateVector, QftMatchesExactDftAmplitudes)
{
    // The generator is big-endian (qubit 0 is the most significant
    // bit of the Fourier integer), so with the state vector's
    // little-endian indexing the exact relation is
    //   amp(y) = exp(2 pi i rev(x) rev(y) / 2^n) / sqrt(2^n).
    const int n = 4;
    const Circuit qft = makeQft(n);
    auto rev = [n](std::uint64_t v) {
        std::uint64_t r = 0;
        for (int i = 0; i < n; ++i) {
            if ((v >> i) & 1)
                r |= std::uint64_t{1} << (n - 1 - i);
        }
        return r;
    };
    for (std::uint64_t x : {0ull, 1ull, 5ull, 15ull}) {
        StateVector sv(n, x);
        sv.run(qft);
        const auto &amps = sv.amplitudes();
        for (std::uint64_t y = 0; y < 16; ++y) {
            const double phase = 2.0 * M_PI
                * static_cast<double>(rev(x) * rev(y)) / 16.0;
            const std::complex<double> expect =
                std::polar(0.25, phase);
            EXPECT_NEAR(std::abs(amps[y] - expect), 0.0, 1e-9)
                << "x=" << x << " y=" << y;
        }
    }
}

TEST(StateVector, TruncatedQftCloseToExactForSmallN)
{
    const int n = 5;
    QftOptions exact_opts;
    QftOptions trunc_opts;
    trunc_opts.maxK = 2;
    const Circuit exact = makeQft(n, exact_opts);
    const Circuit trunc = makeQft(n, trunc_opts);
    StateVector a(n, 19);
    a.run(exact);
    StateVector b(n, 19);
    b.run(trunc);
    // Dropped rotations are at most pi/8 each; fidelity stays high.
    EXPECT_GT(a.overlap(b), 0.9);
}

TEST(StateVector, ProbOneTracksHadamard)
{
    Circuit c(1);
    c.h(0);
    StateVector sv(1);
    sv.run(c);
    EXPECT_NEAR(sv.probOne(0), 0.5, 1e-12);
}

// ---------------------------------------------------------------
// Lowering pass structure.
// ---------------------------------------------------------------

TEST(Lowering, OutputsOnlyFaultTolerantGates)
{
    FowlerSynth synth;
    const Circuit qft = makeQft(8);
    const Lowered low = lowerToFaultTolerant(qft, synth);
    for (const Gate &g : low.circuit.gates()) {
        EXPECT_NE(g.kind, GateKind::Toffoli);
        EXPECT_NE(g.kind, GateKind::RotZ);
        EXPECT_NE(g.kind, GateKind::CRotZ);
    }
}

TEST(Lowering, ToffoliExpandsToFifteenGates)
{
    FowlerSynth synth;
    Circuit src(3);
    src.toffoli(0, 1, 2);
    const Lowered low = lowerToFaultTolerant(src, synth);
    EXPECT_EQ(low.circuit.size(), 15u);
    const auto census = low.circuit.census();
    EXPECT_EQ(census.of(GateKind::CX), 6u);
    EXPECT_EQ(census.nonTransversal1q(), 7u);
    EXPECT_EQ(census.of(GateKind::H), 2u);
    EXPECT_EQ(low.stats.toffolis, 1u);
}

TEST(Lowering, ElidesFineRotations)
{
    FowlerSynth synth;
    Circuit src(2);
    src.crotZ(0, 1, 12); // finer than the default cutoff of 8
    LoweringOptions opts;
    opts.maxRotK = 8;
    const Lowered low = lowerToFaultTolerant(src, synth, opts);
    EXPECT_EQ(low.circuit.size(), 0u);
    EXPECT_EQ(low.stats.elided, 1u);
    EXPECT_GT(low.stats.elidedAngleSum, 0.0);
}

TEST(Lowering, KeepsCoarseRotations)
{
    FowlerSynth synth;
    Circuit src(2);
    src.crotZ(0, 1, 2);
    const Lowered low = lowerToFaultTolerant(src, synth);
    EXPECT_GT(low.circuit.size(), 2u);
    EXPECT_EQ(low.stats.elided, 0u);
    EXPECT_EQ(low.stats.controlledRots, 1u);
}

TEST(Lowering, TracksApproximationError)
{
    FowlerSynth synth;
    Circuit src(1);
    src.rotZ(0, 5);
    const Lowered low = lowerToFaultTolerant(src, synth);
    EXPECT_EQ(low.stats.rotations, 1u);
    EXPECT_GT(low.stats.approxErrorMax, 0.0);
    EXPECT_LE(low.stats.approxErrorMax, 0.1);
}

TEST(Lowering, CRotZDecompositionShape)
{
    // CRotZ(k) -> 2 CX + 3 rotation words (Section 2.5 / [14]).
    FowlerSynth synth;
    Circuit src(2);
    src.crotZ(0, 1, 1); // rotations are exact T gates here
    const Lowered low = lowerToFaultTolerant(src, synth);
    const auto census = low.circuit.census();
    EXPECT_EQ(census.of(GateKind::CX), 2u);
    EXPECT_EQ(census.nonTransversal1q(), 3u);
}

// ---------------------------------------------------------------
// Workload table.
// ---------------------------------------------------------------

Workload
buildWorkload(const char *name, int bits, FowlerSynth &synth)
{
    WorkloadParams params;
    params.bits = bits;
    return WorkloadRegistry::instance().build(name, synth, params);
}

TEST(Benchmarks, NamesMatchPaper)
{
    FowlerSynth synth;
    EXPECT_EQ(buildWorkload("qrca", 32, synth).name, "32-Bit QRCA");
    EXPECT_EQ(buildWorkload("qcla", 32, synth).name, "32-Bit QCLA");
    EXPECT_EQ(buildWorkload("qft", 2, synth).name, "2-Bit QFT");
    // Synthetic generators display their circuit's own name.
    const Workload chain = buildWorkload("chain", 4, synth);
    EXPECT_EQ(chain.key, "chain");
    EXPECT_EQ(chain.name, "chain-4");
}

TEST(Benchmarks, NonTransversalFractionNearPaper)
{
    // Paper Section 3.3: non-transversal one-qubit gates are 40.5%,
    // 41.0% and 46.9% of the QRCA, QCLA and QFT circuits. Our
    // constructions should land in the same neighborhood.
    FowlerSynth synth;
    for (const char *name : {"qrca", "qcla"}) {
        const Workload w = buildWorkload(name, 32, synth);
        const auto census = w.lowered.circuit.census();
        const double frac =
            static_cast<double>(census.nonTransversal1q())
            / static_cast<double>(census.total);
        EXPECT_GT(frac, 0.25) << w.name;
        EXPECT_LT(frac, 0.55) << w.name;
    }
}

TEST(Benchmarks, QrcaGateCountScaleMatchesPaper)
{
    // Paper Table 3 implies ~4.3k encoded zero ancillae for the
    // 32-bit QRCA, i.e. ~2.1k gates. Require the same order.
    FowlerSynth synth;
    const Workload w = buildWorkload("qrca", 32, synth);
    EXPECT_GT(w.lowered.circuit.size(), 1000u);
    EXPECT_LT(w.lowered.circuit.size(), 5000u);
}

} // namespace
} // namespace qc
