/**
 * @file
 * The one event-driven dataflow executor of the paper's Section 5.2
 * ("event-based simulation of ancilla factory production and data
 * qubit gate consumption") and the organizations that run on it.
 *
 * Every organization differs only in where encoded ancillae come
 * from and what data movement costs, so each is an ArchExecution
 * policy over the same executor (ArchExecution::run):
 *
 *  - Throttled supply (Figure 8, throttledRun): no movement; every
 *    QEC step claims two encoded zeros, and every pi/8 gate one pi/8
 *    ancilla, from steady rate-limited pools.
 *  - QLA [22]: every logical data qubit owns a dedicated ancilla
 *    generator producing serially (one simple factory); operands of
 *    two-qubit gates teleport to an interaction site and back home
 *    for their QEC step.
 *  - GQLA: QLA generalized to k parallel generators per data qubit.
 *  - CQLA [15]: a compute cache of data qubits with richer ancilla
 *    support; gates execute only on cached qubits, and misses incur
 *    teleport-in (plus a writeback teleport when a dirty qubit is
 *    evicted). LRU replacement, as in sim-cache.
 *  - GCQLA: CQLA with k parallel generators per cache slot.
 *  - Fully-Multiplexed (Qalypso, Section 5.3): a shared farm of
 *    pipelined factories feeds all data qubits; ancillae travel a
 *    short ballistic hop from the factory output port to the dense
 *    data-only region, and data moves ballistically inside it.
 *  - Tiled Qalypso (Figure 16, runQalypso): the fully-multiplexed
 *    organization split into tiles, each with its own farm; supply
 *    is multiplexed only within a tile and two-qubit gates between
 *    tiles teleport. Fully-Multiplexed is its one-tile case.
 *
 * The five Figure 15 models are the fixed rows of ArchRegistry
 * ("qla", "gqla", "cqla", "gcqla", "fma"); a new model is an
 * ArchExecution plus one row of that table (arch/Microarch.cc).
 * Invalid knobs (an unknown key, a non-positive factory area, a
 * cache under two slots) throw std::invalid_argument naming them.
 */

#ifndef QC_ARCH_MICROARCH_HH
#define QC_ARCH_MICROARCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/Dataflow.hh"
#include "codes/EncodedOp.hh"

namespace qc {

/** Knobs for a single microarchitecture run. */
struct MicroarchConfig
{
    IonTrapParams tech{};

    /**
     * Code recursion level of the executed circuit's logical qubits
     * (1 = the paper's [[7,1,3]] baseline, 2 = concatenated). The
     * models derive effective block-operation latencies, generator
     * designs and footprints from it; `tech` stays the *physical*
     * technology point at every level.
     */
    int codeLevel = 1;

    /**
     * (G)QLA / (G)CQLA: parallel generators per site; 1 reproduces
     * the original QLA/CQLA proposals.
     */
    int generatorsPerSite = 1;

    /** (G)CQLA: compute-cache capacity in logical qubits (>= 2). */
    int cacheSlots = 24;

    /**
     * FullyMultiplexed: total factory area budget (macroblocks,
     * > 0), split between the zero-factory farm and the pi/8 chain
     * in proportion to the circuit's ancilla demand mix.
     */
    Area areaBudget = 3000;

    /**
     * Teleportation latency between tiles / to the compute cache
     * (EPR prep, transversal Bell measurement and fix-up). Zero
     * means "derive from the effective technology point"
     * (tprep + 2 t2q + tmeas + 2 t1q at the configured codeLevel).
     */
    Time teleport = 0;

    /**
     * Effective block-operation latencies at codeLevel
     * (ConcatenatedSteane::effectiveTech; equals `tech` at level 1).
     */
    IonTrapParams effTech() const;

    /** Derived teleport latency. */
    Time
    teleportLatency() const
    {
        if (teleport > 0)
            return teleport;
        const IonTrapParams eff = effTech();
        return eff.tprep + 2 * eff.t2q + eff.tmeas + 2 * eff.t1q;
    }
};

/** Outcome of one executor run. */
struct ArchRunResult
{
    Time makespan = 0;
    std::uint64_t zerosConsumed = 0;
    std::uint64_t pi8Consumed = 0;
    std::uint64_t teleports = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheAccesses = 0;
    Area ancillaArea = 0; ///< generation hardware charged (x-axis)

    /** Gates retired (equals the circuit size unless cut off). */
    std::uint64_t gatesExecuted = 0;

    /** False when a deadline stopped the run before completion. */
    bool completed = true;

    double
    missRate() const
    {
        return cacheAccesses
                   ? static_cast<double>(cacheMisses) / cacheAccesses
                   : 0.0;
    }
};

/**
 * Per-run state and policy hooks of one organization, plus the
 * executor that walks the dataflow graph in dependence order. The
 * executor calls moveOverhead() then ancillaReady() for each gate,
 * in that order — policies that route the ancilla claim to the site
 * chosen by movement (the cached architectures) rely on it.
 */
class ArchExecution
{
  public:
    ArchExecution() = default;
    ArchExecution(const ArchExecution &) = delete;
    ArchExecution &operator=(const ArchExecution &) = delete;
    virtual ~ArchExecution() = default;

    /**
     * Movement / cache latency (ns) charged before the gate
     * executes. Implementations update their movement counters in
     * result.
     */
    virtual Time moveOverhead(const Gate &gate) = 0;

    /**
     * Earliest simulated time (ns) the gate's encoded ancillae are
     * delivered to its QEC site, given the launch attempt at `now`.
     */
    virtual Time ancillaReady(const Gate &gate, Time now) = 0;

    /**
     * Run the dataflow graph under this policy: launch each gate
     * once its predecessors complete, start it when its ancillae
     * are ready, release its successors when it completes. The
     * EncodedOpModel must already be at the run's code level.
     *
     * @param deadline cut the simulation off at this time (via
     *                 Simulator::runUntil) and report a partial
     *                 result (completed = false); <= 0 runs to
     *                 completion
     * @return the counters in `result` (times ns, areas macroblocks)
     */
    ArchRunResult run(const DataflowGraph &graph,
                      const EncodedOpModel &model, Time deadline = 0);

    /** Counters and outcome, updated by the hooks and executor. */
    ArchRunResult result;
};

/**
 * One microarchitecture model: a display name and the policy it
 * prepares per run. Stateless and shareable: all per-run state
 * lives in the ArchExecution.
 */
class ArchModel
{
  public:
    /**
     * Builds the per-run state (banks, cache, pools) and charges the
     * configuration's ancilla-generation area to result; throws
     * std::invalid_argument on knobs the model cannot honor.
     */
    using Prepare = std::unique_ptr<ArchExecution> (*)(
        const DataflowGraph &graph, const EncodedOpModel &model,
        const MicroarchConfig &config);

    ArchModel(std::string name, Prepare prepare)
        : name_(std::move(name)), prepare_(prepare)
    {
    }

    /** Display name (paper style: "QLA", "Fully-Multiplexed"). */
    std::string name() const { return name_; }

    /**
     * Run one dataflow graph to completion under this model. The
     * EncodedOpModel must already be at the config's code level
     * (the facade builds it from ConcatenatedSteane::effectiveTech).
     */
    ArchRunResult run(const DataflowGraph &graph,
                      const EncodedOpModel &model,
                      const MicroarchConfig &config) const;

  private:
    std::string name_;
    Prepare prepare_;
};

/** The fixed table of the five Figure 15 models, by lookup key. */
class ArchRegistry
{
  public:
    static ArchRegistry &instance();

    /** Table keys, sorted. */
    std::vector<std::string> keys() const;

    /** Look up a model; throws std::invalid_argument on unknowns. */
    const ArchModel &get(const std::string &key) const;
};

/** Outcome of a throttled run. */
using ThrottledResult = ArchRunResult;

/**
 * Execute the dataflow graph with a steady ancilla supply and no
 * movement cost (Figure 8).
 *
 * @param graph       lowered benchmark dataflow
 * @param model       encoded-operation model
 * @param zero_per_ms encoded-zero production rate; <= 0 means
 *                    unconstrained
 * @param pi8_per_ms  encoded-pi/8 production rate; <= 0 means
 *                    unconstrained (Figure 8 constrains zeros only)
 * @param deadline    cut the run off at this time and report a
 *                    partial result; <= 0 runs to completion
 */
ThrottledResult throttledRun(const DataflowGraph &graph,
                             const EncodedOpModel &model,
                             BandwidthPerMs zero_per_ms,
                             BandwidthPerMs pi8_per_ms = 0,
                             Time deadline = 0);

/** Configuration of a tiled Qalypso run (level-1 code). */
struct QalypsoConfig
{
    IonTrapParams tech{};

    /** Logical qubits per tile (contiguous index blocks, >= 1). */
    int tileSize = 32;

    /**
     * Factory area per tile (macroblocks, > 0), split between the
     * zero farm and the pi/8 chain in proportion to the circuit's
     * demand mix (as in the fully-multiplexed model).
     */
    Area factoryAreaPerTile = 2000;

    /** Teleport latency override; 0 derives from tech. */
    Time teleport = 0;
};

/** Outcome of a tiled run. */
struct QalypsoRunResult
{
    Time makespan = 0;
    int tiles = 0;
    Area totalFactoryArea = 0;
    std::uint64_t intraTile2q = 0;
    std::uint64_t interTile2q = 0;
    std::uint64_t teleports = 0;
    std::uint64_t zerosConsumed = 0;
    std::uint64_t pi8Consumed = 0;

    /** Fraction of two-qubit gates crossing tiles. */
    double
    interTileFraction() const
    {
        const std::uint64_t total = intraTile2q + interTile2q;
        return total ? static_cast<double>(interTile2q)
                           / static_cast<double>(total)
                     : 0.0;
    }
};

/** Run a benchmark dataflow on the tiled Qalypso organization. */
QalypsoRunResult runQalypso(const DataflowGraph &graph,
                            const EncodedOpModel &model,
                            const QalypsoConfig &config);

} // namespace qc

#endif // QC_ARCH_MICROARCH_HH
