#include "circuit/Dataflow.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/Logging.hh"

namespace qc {

namespace {

/** The "no gate yet" mark; never a node id or an edge offset. */
constexpr NodeId kNone = std::numeric_limits<NodeId>::max();

/** Throws unless `count` fits a NodeId other than kNone. */
void
checkFits(std::size_t count, const char *what)
{
    if (count >= kNone) {
        throw std::invalid_argument(detail::concat(
            "DataflowGraph: ", count, " ", what,
            " do not fit a 32-bit index"));
    }
}

} // namespace

DataflowGraph::DataflowGraph(const Circuit &circuit) : circuit_(circuit)
{
    const auto &gates = circuit.gates();
    checkFits(gates.size(), "gates");
    const auto n = static_cast<NodeId>(gates.size());

    // At most one edge per operand slot.
    std::size_t slots = 0;
    for (const Gate &g : gates)
        slots += static_cast<std::size_t>(g.arity());
    predIdx_.reserve(slots);
    predOff_.reserve(std::size_t{n} + 1);
    predOff_.push_back(0);
    // succOff_[p + 1] counts p's successors until the fill below.
    succOff_.assign(std::size_t{n} + 1, 0);

    std::vector<NodeId> last_on_qubit(circuit.numQubits(), kNone);
    for (NodeId i = 0; i < n; ++i) {
        const Gate &g = gates[i];
        const auto begin = static_cast<std::ptrdiff_t>(predOff_[i]);
        const auto arity = static_cast<std::size_t>(g.arity());
        for (std::size_t slot = 0; slot < arity; ++slot) {
            NodeId &last = last_on_qubit[g.ops[slot]];
            // Two gates sharing two qubits are one edge.
            if (last != kNone
                && std::find(predIdx_.begin() + begin, predIdx_.end(),
                             last) == predIdx_.end())
                predIdx_.push_back(last);
            last = i;
        }
        std::sort(predIdx_.begin() + begin, predIdx_.end());
        checkFits(predIdx_.size(), "edges");
        predOff_.push_back(static_cast<std::uint32_t>(predIdx_.size()));
        if (predOff_[i + 1] == predOff_[i])
            roots_.push_back(i);
        for (NodeId p : preds(i))
            ++succOff_[p + 1];
    }

    // Counts to offsets; then fill each node's range in program
    // order, so successor lists come out ascending. Filling advances
    // every cursor to its node's end, the next node's start, so
    // shifting them one slot restores the offsets.
    for (NodeId p = 0; p < n; ++p)
        succOff_[p + 1] += succOff_[p];
    succIdx_.resize(predIdx_.size());
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId p : preds(i))
            succIdx_[succOff_[p]++] = i;
    }
    for (NodeId p = n; p > 0; --p)
        succOff_[p] = succOff_[p - 1];
    succOff_[0] = 0;
}

Schedule
DataflowGraph::asap(const LatencyModel &latency) const
{
    const auto n = static_cast<NodeId>(numNodes());
    Schedule sched;
    sched.start.assign(n, 0);
    sched.end.assign(n, 0);

    // Program order is already a topological order (edges only go
    // from earlier to later gates).
    for (NodeId i = 0; i < n; ++i) {
        Time ready = 0;
        for (NodeId p : preds(i))
            ready = std::max(ready, sched.end[p]);
        const Time lat = latency(circuit_.gates()[i]);
        if (lat < 0)
            panic("negative gate latency");
        sched.start[i] = ready;
        sched.end[i] = ready + lat;
        sched.makespan = std::max(sched.makespan, sched.end[i]);
    }
    return sched;
}

std::vector<std::uint32_t>
DataflowGraph::levels() const
{
    const auto n = static_cast<NodeId>(numNodes());
    std::vector<std::uint32_t> level(n, 0);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId p : preds(i))
            level[i] = std::max(level[i], level[p] + 1);
    }
    return level;
}

std::uint32_t
DataflowGraph::depth() const
{
    std::uint32_t d = 0;
    for (std::uint32_t lvl : levels())
        d = std::max(d, lvl + 1);
    return numNodes() ? d : 0;
}

} // namespace qc
