/**
 * @file
 * Qubit-dependency dataflow graph over a Circuit, plus ASAP
 * scheduling against a pluggable latency model.
 *
 * This is the foundation of the paper's Section 3 analysis: the
 * "speed of data" of a circuit is the makespan of its ASAP schedule
 * when every gate costs only its data-interaction latency (ancilla
 * preparation removed from the critical path).
 */

#ifndef QC_CIRCUIT_DATAFLOW_HH
#define QC_CIRCUIT_DATAFLOW_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "circuit/Circuit.hh"
#include "common/Types.hh"

namespace qc {

/** Index of a gate (node) within a DataflowGraph. */
using NodeId = std::uint32_t;

/** Result of scheduling a dataflow graph. */
struct Schedule
{
    /** Start time per gate, indexed by NodeId. */
    std::vector<Time> start;
    /** End time per gate, indexed by NodeId. */
    std::vector<Time> end;
    /** Completion time of the whole circuit. */
    Time makespan = 0;
};

/**
 * Dependency DAG over the gates of a circuit.
 *
 * Gate B depends on gate A iff they share a qubit and A precedes B
 * in program order with no intervening gate on that qubit (i.e.
 * last-writer edges, which are sufficient for scheduling since all
 * our dependencies are read-modify-write).
 *
 * The edges live in two flat compressed-row arrays, one per
 * direction: node n's neighbours are idx[off[n] .. off[n + 1]).
 * Both lists are deduplicated and ascending.
 */
class DataflowGraph
{
  public:
    /** Latency assigned to each gate when scheduling. */
    using LatencyModel = std::function<Time(const Gate &)>;

    /**
     * Build the dependency DAG for a circuit (kept by reference).
     * Throws std::invalid_argument when the gate count or the edge
     * count does not fit a NodeId.
     */
    explicit DataflowGraph(const Circuit &circuit);

    /** The underlying circuit. */
    const Circuit &circuit() const { return circuit_; }

    /** Number of gate nodes. */
    std::size_t numNodes() const { return predOff_.size() - 1; }

    /** Immediate predecessors of node n. */
    std::span<const NodeId> preds(NodeId n) const
    {
        return {predIdx_.data() + predOff_[n],
                predIdx_.data() + predOff_[n + 1]};
    }

    /** Immediate successors of node n. */
    std::span<const NodeId> succs(NodeId n) const
    {
        return {succIdx_.data() + succOff_[n],
                succIdx_.data() + succOff_[n + 1]};
    }

    /** Nodes with no predecessors. */
    const std::vector<NodeId> &roots() const { return roots_; }

    /**
     * As-soon-as-possible schedule: each gate starts when all its
     * predecessors have finished. Assumes unbounded resources — the
     * definition of "speed of data" (Figure 1b).
     */
    Schedule asap(const LatencyModel &latency) const;

    /**
     * Unit-latency depth of each node (longest path in gate count);
     * the maximum plus one is the circuit's logical depth.
     */
    std::vector<std::uint32_t> levels() const;

    /** Logical depth (longest chain of dependent gates). */
    std::uint32_t depth() const;

  private:
    const Circuit &circuit_;
    std::vector<std::uint32_t> predOff_;
    std::vector<NodeId> predIdx_;
    std::vector<std::uint32_t> succOff_;
    std::vector<NodeId> succIdx_;
    std::vector<NodeId> roots_;
};

} // namespace qc

#endif // QC_CIRCUIT_DATAFLOW_HH
