/**
 * @file
 * Unit tests for the circuit IR and dataflow scheduling.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "circuit/Circuit.hh"
#include "circuit/Dataflow.hh"

namespace qc {
namespace {

TEST(Gate, ArityByKind)
{
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::T), 1);
    EXPECT_EQ(gateArity(GateKind::CX), 2);
    EXPECT_EQ(gateArity(GateKind::CRotZ), 2);
    EXPECT_EQ(gateArity(GateKind::Toffoli), 3);
    EXPECT_EQ(gateArity(GateKind::Measure), 1);
}

TEST(Gate, NamesAreStable)
{
    EXPECT_EQ(gateName(GateKind::T), "T");
    EXPECT_EQ(gateName(GateKind::CX), "CX");
    EXPECT_EQ(gateName(GateKind::Toffoli), "Toffoli");
}

TEST(Circuit, BuilderAppendsInOrder)
{
    Circuit c(3);
    c.h(0).cx(0, 1).t(1).toffoli(0, 1, 2).measure(2);
    ASSERT_EQ(c.size(), 5u);
    EXPECT_EQ(c.gates()[0].kind, GateKind::H);
    EXPECT_EQ(c.gates()[1].kind, GateKind::CX);
    EXPECT_EQ(c.gates()[3].kind, GateKind::Toffoli);
    EXPECT_EQ(c.gates()[3].ops[2], 2u);
}

TEST(Circuit, CensusCountsKinds)
{
    Circuit c(2);
    c.h(0).h(1).t(0).tdg(1).cx(0, 1);
    const GateCensus census = c.census();
    EXPECT_EQ(census.total, 5u);
    EXPECT_EQ(census.of(GateKind::H), 2u);
    EXPECT_EQ(census.nonTransversal1q(), 2u);
}

TEST(Circuit, RotationParamStored)
{
    Circuit c(2);
    c.rotZ(0, 5).crotZ(0, 1, -3);
    EXPECT_EQ(c.gates()[0].param, 5);
    EXPECT_EQ(c.gates()[1].param, -3);
}

TEST(Circuit, AddQubitsGrows)
{
    Circuit c(2);
    const Qubit first = c.addQubits(3);
    EXPECT_EQ(first, 2u);
    EXPECT_EQ(c.numQubits(), 5u);
    c.h(4); // must not panic
}

TEST(CircuitDeath, RejectsOutOfRangeOperand)
{
    Circuit c(2);
    EXPECT_DEATH(c.h(2), "out of range");
}

TEST(CircuitDeath, RejectsDuplicateOperands)
{
    Circuit c(2);
    EXPECT_DEATH(c.cx(1, 1), "duplicate");
}

TEST(Dataflow, ChainHasLinearDepth)
{
    Circuit c(1);
    c.h(0).t(0).h(0).t(0);
    DataflowGraph g(c);
    EXPECT_EQ(g.depth(), 4u);
    EXPECT_EQ(g.roots().size(), 1u);
}

TEST(Dataflow, IndependentGatesAreParallel)
{
    Circuit c(4);
    c.h(0).h(1).h(2).h(3);
    DataflowGraph g(c);
    EXPECT_EQ(g.depth(), 1u);
    EXPECT_EQ(g.roots().size(), 4u);
}

TEST(Dataflow, TwoQubitGatesJoinChains)
{
    Circuit c(2);
    c.h(0).h(1).cx(0, 1).t(1);
    DataflowGraph g(c);
    // cx depends on both h's; t depends on cx.
    EXPECT_EQ(g.preds(2).size(), 2u);
    EXPECT_EQ(g.preds(3).size(), 1u);
    EXPECT_EQ(g.depth(), 3u);
}

TEST(Dataflow, AsapMakespanOfChain)
{
    Circuit c(1);
    c.h(0).h(0).h(0);
    DataflowGraph g(c);
    const Schedule s = g.asap([](const Gate &) { return Time{7}; });
    EXPECT_EQ(s.makespan, 21);
    EXPECT_EQ(s.start[2], 14);
}

TEST(Dataflow, AsapRespectsCrossQubitDependencies)
{
    Circuit c(2);
    c.h(0).h(1).cx(0, 1);
    DataflowGraph g(c);
    const Schedule s = g.asap([](const Gate &g_) {
        return g_.kind == GateKind::H ? Time{5} : Time{10};
    });
    EXPECT_EQ(s.start[2], 5);
    EXPECT_EQ(s.makespan, 15);
}

TEST(Dataflow, ParallelismShortensMakespan)
{
    // Two independent chains of 3 gates each.
    Circuit c(2);
    c.h(0).h(0).h(0).h(1).h(1).h(1);
    DataflowGraph g(c);
    const Schedule s = g.asap([](const Gate &) { return Time{10}; });
    EXPECT_EQ(s.makespan, 30);
    EXPECT_EQ(g.depth(), 3u);
}

TEST(Dataflow, LevelsMatchDepth)
{
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measure(2);
    DataflowGraph g(c);
    const auto levels = g.levels();
    EXPECT_EQ(levels[0], 0u);
    EXPECT_EQ(levels[1], 1u);
    EXPECT_EQ(levels[2], 2u);
    EXPECT_EQ(levels[3], 3u);
}

TEST(Dataflow, PrepStartsNewLifetimeButKeepsOrdering)
{
    Circuit c(1);
    c.h(0).measure(0).prepZ(0).h(0);
    DataflowGraph g(c);
    // Still a chain: reuse of the qubit is ordered.
    EXPECT_EQ(g.depth(), 4u);
}

/**
 * Checks the graph's edges against a reference built here from the
 * last gate on each qubit: preds and succs deduplicated and
 * ascending, roots in program order.
 */
void
expectLastWriterEdges(const Circuit &c)
{
    const DataflowGraph g(c);
    const auto &gates = c.gates();
    ASSERT_EQ(g.numNodes(), gates.size());
    std::vector<std::set<NodeId>> preds(gates.size());
    std::vector<std::vector<NodeId>> succs(gates.size());
    std::vector<NodeId> roots;
    std::vector<int> last(c.numQubits(), -1);
    for (NodeId i = 0; i < gates.size(); ++i) {
        for (int slot = 0; slot < gates[i].arity(); ++slot) {
            const Qubit q = gates[i].ops[static_cast<std::size_t>(slot)];
            if (last[q] >= 0)
                preds[i].insert(static_cast<NodeId>(last[q]));
            last[q] = static_cast<int>(i);
        }
        for (NodeId p : preds[i])
            succs[p].push_back(i);
        if (preds[i].empty())
            roots.push_back(i);
    }
    for (NodeId i = 0; i < gates.size(); ++i) {
        EXPECT_EQ(std::vector<NodeId>(g.preds(i).begin(),
                                      g.preds(i).end()),
                  std::vector<NodeId>(preds[i].begin(), preds[i].end()))
            << "preds of node " << i;
        EXPECT_EQ(std::vector<NodeId>(g.succs(i).begin(),
                                      g.succs(i).end()),
                  succs[i])
            << "succs of node " << i;
    }
    EXPECT_EQ(g.roots(), roots);
}

TEST(Dataflow, EdgesAreTheLastGateOnEachQubit)
{
    Circuit c(5);
    c.h(0).cx(0, 1).cx(0, 1).h(3).toffoli(3, 1, 0).t(2).cx(2, 4);
    c.toffoli(4, 0, 3).measure(1).prepZ(1).cz(1, 4).crotZ(3, 2, 3);
    expectLastWriterEdges(c);
    // The repeated cx(0, 1) depends on the first through one edge.
    const DataflowGraph g(c);
    EXPECT_EQ(g.preds(2).size(), 1u);
    EXPECT_EQ(g.succs(1).size(), 1u);
    // The first Toffoli's operands were last touched by gates 3
    // (qubit 3) and 2 (qubits 1 and 0).
    EXPECT_EQ(std::vector<NodeId>(g.preds(4).begin(), g.preds(4).end()),
              (std::vector<NodeId>{2, 3}));
}

TEST(Dataflow, EdgesOfAGeneratedCircuit)
{
    // A fixed pseudo-random mix of one-, two- and three-qubit gates.
    Circuit c(7);
    std::uint32_t state = 12345;
    const auto next = [&](std::uint32_t mod) {
        state = state * 1103515245u + 12345u;
        return static_cast<Qubit>((state >> 16) % mod);
    };
    for (int i = 0; i < 400; ++i) {
        const Qubit a = next(7);
        const Qubit b = (a + 1 + next(6)) % 7;
        Qubit t = (a + 1 + next(6)) % 7;
        while (t == a || t == b)
            t = (t + 1) % 7;
        switch (next(3)) {
          case 0: c.h(a); break;
          case 1: c.cx(a, b); break;
          default: c.toffoli(a, b, t); break;
        }
    }
    expectLastWriterEdges(c);
}

} // namespace
} // namespace qc
