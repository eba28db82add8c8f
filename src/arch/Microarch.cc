#include "arch/Microarch.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "codes/ConcatenatedCode.hh"
#include "common/Logging.hh"
#include "factory/ConcatenatedFactory.hh"
#include "factory/Pi8Factory.hh"
#include "factory/ZeroFactory.hh"
#include "sim/Simulator.hh"
#include "sim/TokenPool.hh"

namespace qc {

IonTrapParams
MicroarchConfig::effTech() const
{
    return ConcatenatedSteane::effectiveTech(tech, codeLevel);
}

ArchRunResult
ArchExecution::run(const DataflowGraph &graph,
                   const EncodedOpModel &model, Time deadline)
{
    const auto &gates = graph.circuit().gates();
    const auto n = static_cast<NodeId>(graph.numNodes());

    Simulator sim;
    std::vector<int> missing(n, 0);
    for (NodeId i = 0; i < n; ++i)
        missing[i] = static_cast<int>(graph.preds(i).size());

    std::function<void(NodeId)> launch = [&](NodeId node) {
        const Gate &g = gates[node];
        // Movement/cache bookkeeping first: it determines the QEC
        // site whose bank the ancilla claim goes to.
        const Time overhead = moveOverhead(g);
        result.zerosConsumed +=
            static_cast<std::uint64_t>(model.zeroAncillae(g));
        result.pi8Consumed +=
            static_cast<std::uint64_t>(model.pi8Ancillae(g));
        const Time start =
            std::max(sim.now(), ancillaReady(g, sim.now()));
        Time latency = overhead + model.dataLatency(g);
        if (model.needsQec(g.kind))
            latency += model.qecInteractLatency();
        sim.schedule(start + latency, [&, node]() {
            result.makespan = std::max(result.makespan, sim.now());
            ++result.gatesExecuted;
            for (NodeId succ : graph.succs(node)) {
                if (--missing[succ] == 0)
                    launch(succ);
            }
        });
    };

    // Kick off the roots at t = 0 through the event queue so token
    // claims happen in deterministic time order.
    for (NodeId root : graph.roots())
        sim.schedule(0, [&, root]() { launch(root); });

    if (deadline > 0) {
        sim.runUntil(deadline);
        if (sim.pending() > 0) {
            result.completed = false;
            result.makespan = std::max(result.makespan, sim.now());
        }
    } else {
        sim.run();
    }
    return result;
}

ArchRunResult
ArchModel::run(const DataflowGraph &graph, const EncodedOpModel &model,
               const MicroarchConfig &config) const
{
    return prepare_(graph, model, config)->run(graph, model);
}

namespace {

/**
 * Small LRU set of logical qubits with stable slot assignment (the
 * CQLA compute cache; slots carry the per-site generator banks).
 */
class LruCache
{
  public:
    struct Access
    {
        bool hit = false;
        bool evicted = false;
        int slot = 0;
    };

    explicit LruCache(std::size_t capacity)
    {
        for (std::size_t s = capacity; s > 0; --s)
            freeSlots_.push_back(static_cast<int>(s - 1));
    }

    /** Touch q (MRU); reports hit/eviction and the slot q occupies. */
    Access
    access(Qubit q)
    {
        Access out;
        auto it = std::find_if(
            order_.begin(), order_.end(),
            [q](const Entry &e) { return e.qubit == q; });
        if (it != order_.end()) {
            out.hit = true;
            out.slot = it->slot;
            const Entry entry = *it;
            order_.erase(it);
            order_.push_front(entry);
            return out;
        }
        int slot;
        if (freeSlots_.empty()) {
            out.evicted = true;
            slot = order_.back().slot;
            order_.pop_back();
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        out.slot = slot;
        order_.push_front(Entry{q, slot});
        return out;
    }

  private:
    struct Entry
    {
        Qubit qubit;
        int slot;
    };

    std::deque<Entry> order_;
    std::vector<int> freeSlots_;
};

/** Ballistic two-qubit rendezvous inside a dense data region. */
Time
ballistic2q(int region_qubits, const IonTrapParams &tech)
{
    // Average column separation is a third of the region width;
    // each encoded-qubit column plus its channel is two macroblocks
    // wide. Two turns to leave and rejoin a column.
    const int moves = std::max(2, 2 * region_qubits / 3);
    return moves * tech.tmove + 2 * tech.tturn;
}

/** Hop of a fresh ancilla from a factory output port to the data. */
Time
ancillaHop(const IonTrapParams &tech)
{
    return 3 * tech.tmove + tech.tturn;
}

/**
 * Extra conversion time for a pi/8 ancilla produced from a bank
 * zero (banks produce zeroes; the conversion pipeline of Fig 5b
 * adds its stages on top).
 */
Time
pi8Extra(const EncodedOpModel &model)
{
    return model.pi8PrepLatency() - model.zeroPrepLatency();
}

// ----------------------------------------------------------------
// Throttled supply (Figure 8): no movement; steady rate-limited
// pools of encoded zeros and pi/8 ancillae.
// ----------------------------------------------------------------

class ThrottledExecution : public ArchExecution
{
  public:
    ThrottledExecution(const EncodedOpModel &model,
                       BandwidthPerMs zero_per_ms,
                       BandwidthPerMs pi8_per_ms)
        : model_(model), zeros_(zero_per_ms), pi8s_(pi8_per_ms)
    {
    }

    Time moveOverhead(const Gate &) override { return 0; }

    Time
    ancillaReady(const Gate &g, Time now) override
    {
        return std::max({now, zeros_.claim(model_.zeroAncillae(g)),
                         pi8s_.claim(model_.pi8Ancillae(g))});
    }

  private:
    const EncodedOpModel &model_;
    RateTokenPool zeros_;
    RateTokenPool pi8s_;
};

// ----------------------------------------------------------------
// (G)QLA: every logical data qubit owns k dedicated serial ancilla
// generators; operands of two-qubit gates teleport to an
// interaction site and back home for their QEC step. "QLA" is the
// k = 1 point of "GQLA", so both rows share this policy.
// ----------------------------------------------------------------

class QlaExecution : public ArchExecution
{
  public:
    QlaExecution(const DataflowGraph &graph,
                 const EncodedOpModel &model,
                 const MicroarchConfig &config)
        : model_(model),
          teleport_(config.teleportLatency()),
          pi8Extra_(pi8Extra(model))
    {
        const int k = std::max(1, config.generatorsPerSite);
        const Qubit nq = graph.circuit().numQubits();
        // The dedicated serial generator is the Fig 11 schedule at
        // the configured level's block-operation latencies, on a
        // tile whose footprint scales with the block.
        const SimpleZeroFactory simple(config.effTech());
        const Area tileScale =
            ConcatenatedSteane::tileArea(config.codeLevel);
        banks_.reserve(nq);
        for (Qubit q = 0; q < nq; ++q)
            banks_.emplace_back(k, simple.latency());
        result.ancillaArea =
            static_cast<Area>(nq) * k * simple.area() * tileScale;
    }

    Time
    moveOverhead(const Gate &g) override
    {
        // One operand teleports to its partner's site for a
        // two-qubit gate; the QEC step runs there with the site's
        // own generators and the return trip overlaps with the next
        // gate's transfer.
        if (g.arity() == 2) {
            result.teleports += 1;
            return teleport_;
        }
        return 0;
    }

    Time
    ancillaReady(const Gate &g, Time now) override
    {
        Time ready = now;
        const int z = model_.zeroAncillae(g);
        const int p = model_.pi8Ancillae(g);
        // Claims go to the home bank of the gate's last operand
        // (where the QEC step runs).
        auto &bank = banks_[g.ops[static_cast<std::size_t>(
            g.arity() - 1)]];
        if (z > 0)
            ready = std::max(ready, bank.claim(z, now));
        if (p > 0)
            ready = std::max(ready, bank.claim(p, now) + pi8Extra_);
        return ready;
    }

  private:
    const EncodedOpModel &model_;
    const Time teleport_;
    const Time pi8Extra_;
    std::vector<OnDemandBankPool> banks_;
};

// ----------------------------------------------------------------
// (G)CQLA: a compute cache of data qubits with k generators per
// slot; gates execute only on cached qubits, and misses incur
// teleport-in (plus a writeback teleport when a dirty qubit is
// evicted). LRU replacement, as in sim-cache. "CQLA" is the k = 1
// point of "GCQLA".
// ----------------------------------------------------------------

class CqlaExecution : public ArchExecution
{
  public:
    CqlaExecution(const EncodedOpModel &model,
                  const MicroarchConfig &config)
        : model_(model),
          teleport_(config.teleportLatency()),
          pi8Extra_(pi8Extra(model)),
          ballistic_(ballistic2q(config.cacheSlots, config.effTech())),
          cache_(static_cast<std::size_t>(config.cacheSlots))
    {
        const int k = std::max(1, config.generatorsPerSite);
        const SimpleZeroFactory simple(config.effTech());
        const Area tileScale =
            ConcatenatedSteane::tileArea(config.codeLevel);
        slotBanks_.reserve(static_cast<std::size_t>(config.cacheSlots));
        for (int s = 0; s < config.cacheSlots; ++s)
            slotBanks_.emplace_back(k, simple.latency());
        result.ancillaArea = static_cast<Area>(config.cacheSlots)
            * k * simple.area() * tileScale;
    }

    Time
    moveOverhead(const Gate &g) override
    {
        Time penalty = 0;
        const int arity = g.arity();
        for (int i = 0; i < arity; ++i) {
            ++result.cacheAccesses;
            const LruCache::Access access =
                cache_.access(g.ops[static_cast<std::size_t>(i)]);
            qecSlot_ = access.slot;
            if (!access.hit) {
                ++result.cacheMisses;
                ++result.teleports;
                penalty += teleport_; // fetch
                if (access.evicted) {
                    ++result.teleports;
                    penalty += teleport_; // dirty writeback
                }
            }
        }
        if (arity == 2)
            penalty += ballistic_;
        return penalty;
    }

    Time
    ancillaReady(const Gate &g, Time now) override
    {
        // Fresh ancillae live outside the compute cache proper and
        // are teleported in ("even with very fast encoded ancilla
        // production, cache misses are still incurred to bring
        // ancillae to data" — Section 5.2). This delivery sets
        // CQLA's plateau.
        Time ready = now;
        const int z = model_.zeroAncillae(g);
        const int p = model_.pi8Ancillae(g);
        auto &bank =
            slotBanks_[static_cast<std::size_t>(qecSlot_)];
        if (z > 0)
            ready = std::max(ready, bank.claim(z, now) + teleport_);
        if (p > 0) {
            ready = std::max(
                ready, bank.claim(p, now) + teleport_ + pi8Extra_);
        }
        return ready;
    }

  private:
    const EncodedOpModel &model_;
    const Time teleport_;
    const Time pi8Extra_;
    const Time ballistic_;
    LruCache cache_;
    std::vector<OnDemandBankPool> slotBanks_;
    // Slot hosting the most recent gate's QEC site (set by
    // moveOverhead, consumed by ancillaReady).
    int qecSlot_ = 0;
};

// ----------------------------------------------------------------
// Fully-Multiplexed (Qalypso, Section 5.3): pipelined factory
// farms feed dense data-only regions; ancillae travel a short
// ballistic hop from a factory output port and data moves
// ballistically inside a region. The logical qubits are split into
// tiles of contiguous indices, each with its own farm: supply is
// multiplexed only within a tile, and two-qubit gates between tiles
// teleport. The Figure 15 model is the one-tile case.
// ----------------------------------------------------------------

class MultiplexedExecution : public ArchExecution
{
  public:
    MultiplexedExecution(const DataflowGraph &graph,
                         const EncodedOpModel &model,
                         const MicroarchConfig &config, int tileSize,
                         Area areaPerTile)
        : model_(model),
          tileSize_(tileSize),
          hop_(ancillaHop(config.effTech())),
          teleport_(config.teleportLatency())
    {
        const int nq = static_cast<int>(graph.circuit().numQubits());
        tiles = (nq + tileSize - 1) / tileSize;
        ballistic_ =
            ballistic2q(std::min(tileSize, nq), config.effTech());

        // Area per unit delivered bandwidth and pipeline fill
        // latency for each product at the configured code level.
        // Each pi/8 ancilla also consumes one zero, hence the
        // cost_zero coupling term.
        double cost_zero = 0, cost_pi8 = 0;
        Time zero_fill = 0, pi8_fill = 0;
        const auto price = [&](const auto &zeroFactory,
                               const auto &pi8Factory) {
            cost_zero =
                zeroFactory.totalArea() / zeroFactory.throughput();
            cost_pi8 =
                pi8Factory.totalArea() / pi8Factory.throughput()
                + cost_zero;
            zero_fill = zeroFactory.latency();
            pi8_fill = zeroFactory.latency() + pi8Factory.latency();
        };
        if (config.codeLevel >= 2) {
            price(Level2ZeroFactory(config.tech),
                  Level2Pi8Factory(config.tech));
        } else {
            price(ZeroFactory(config.tech), Pi8Factory(config.tech));
        }

        // Split the farm between the zero pools and the pi/8 chain
        // in proportion to the circuit's demand mix; each tile owns
        // 1/tiles of it.
        std::uint64_t zero_demand = 0;
        std::uint64_t pi8_demand = 0;
        for (const Gate &g : graph.circuit().gates()) {
            zero_demand +=
                static_cast<std::uint64_t>(model.zeroAncillae(g));
            pi8_demand +=
                static_cast<std::uint64_t>(model.pi8Ancillae(g));
        }
        const double weighted =
            static_cast<double>(zero_demand) * cost_zero
            + static_cast<double>(pi8_demand) * cost_pi8;
        const double scale = weighted > 0
            ? areaPerTile * static_cast<double>(tiles) / weighted
            : 0.0;
        const auto perTile = [&](std::uint64_t demand) {
            return static_cast<double>(demand) * scale
                / static_cast<double>(tiles);
        };
        const auto count = static_cast<std::size_t>(tiles);
        zeros_.assign(count,
                      RateTokenPool(perTile(zero_demand), zero_fill));
        pi8s_.assign(count,
                     RateTokenPool(perTile(pi8_demand), pi8_fill));
        result.ancillaArea = areaPerTile * static_cast<Area>(tiles);
    }

    Time
    moveOverhead(const Gate &g) override
    {
        Time penalty = hop_;
        if (g.arity() == 2) {
            if (tileOf(g.ops[0]) == tileOf(g.ops[1])) {
                ++intraTile2q;
                penalty += ballistic_;
            } else {
                ++interTile2q;
                ++result.teleports;
                penalty += teleport_;
            }
        }
        return penalty;
    }

    Time
    ancillaReady(const Gate &g, Time now) override
    {
        // The QEC site is the tile of the last operand.
        const auto home = static_cast<std::size_t>(
            tileOf(g.ops[static_cast<std::size_t>(g.arity() - 1)]));
        return std::max({now,
                         zeros_[home].claim(model_.zeroAncillae(g)),
                         pi8s_[home].claim(model_.pi8Ancillae(g))});
    }

    int tiles = 0;
    std::uint64_t intraTile2q = 0;
    std::uint64_t interTile2q = 0;

  private:
    int
    tileOf(Qubit q) const
    {
        return static_cast<int>(q) / tileSize_;
    }

    const EncodedOpModel &model_;
    const int tileSize_;
    const Time hop_;
    const Time teleport_;
    Time ballistic_ = 0;
    std::vector<RateTokenPool> zeros_;
    std::vector<RateTokenPool> pi8s_;
};

std::unique_ptr<ArchExecution>
prepareQla(const DataflowGraph &graph, const EncodedOpModel &model,
           const MicroarchConfig &config)
{
    return std::make_unique<QlaExecution>(graph, model, config);
}

std::unique_ptr<ArchExecution>
prepareCqla(const DataflowGraph &, const EncodedOpModel &model,
            const MicroarchConfig &config)
{
    // A cache needs one slot per operand of a two-qubit gate.
    if (config.cacheSlots < 2) {
        throw std::invalid_argument(detail::concat(
            "cacheSlots must be >= 2 (got ", config.cacheSlots, ")"));
    }
    return std::make_unique<CqlaExecution>(model, config);
}

std::unique_ptr<ArchExecution>
prepareFma(const DataflowGraph &graph, const EncodedOpModel &model,
           const MicroarchConfig &config)
{
    if (!(config.areaBudget > 0)) {
        throw std::invalid_argument(detail::concat(
            "areaBudget must be > 0 (got ", config.areaBudget, ")"));
    }
    // One tile spanning every logical qubit.
    return std::make_unique<MultiplexedExecution>(
        graph, model, config,
        static_cast<int>(graph.circuit().numQubits()),
        config.areaBudget);
}

struct ArchRow
{
    const char *key;
    ArchModel model;
};

const std::vector<ArchRow> &
archTable()
{
    static const std::vector<ArchRow> table = {
        {"qla", ArchModel("QLA", prepareQla)},
        {"gqla", ArchModel("GQLA", prepareQla)},
        {"cqla", ArchModel("CQLA", prepareCqla)},
        {"gcqla", ArchModel("GCQLA", prepareCqla)},
        {"fma", ArchModel("Fully-Multiplexed", prepareFma)},
    };
    return table;
}

} // namespace

ArchRegistry &
ArchRegistry::instance()
{
    static ArchRegistry registry;
    return registry;
}

std::vector<std::string>
ArchRegistry::keys() const
{
    std::vector<std::string> out;
    for (const ArchRow &row : archTable())
        out.push_back(row.key);
    std::sort(out.begin(), out.end());
    return out;
}

const ArchModel &
ArchRegistry::get(const std::string &key) const
{
    for (const ArchRow &row : archTable()) {
        if (key == row.key)
            return row.model;
    }
    std::string message = "unknown architecture \"" + key
        + "\"; registered architectures:";
    for (const std::string &k : keys())
        message += " " + k;
    throw std::invalid_argument(message);
}

ThrottledResult
throttledRun(const DataflowGraph &graph, const EncodedOpModel &model,
             BandwidthPerMs zero_per_ms, BandwidthPerMs pi8_per_ms,
             Time deadline)
{
    return ThrottledExecution(model, zero_per_ms, pi8_per_ms)
        .run(graph, model, deadline);
}

QalypsoRunResult
runQalypso(const DataflowGraph &graph, const EncodedOpModel &model,
           const QalypsoConfig &config)
{
    if (config.tileSize < 1) {
        throw std::invalid_argument(detail::concat(
            "tileSize must be >= 1 (got ", config.tileSize, ")"));
    }
    if (!(config.factoryAreaPerTile > 0)) {
        throw std::invalid_argument(detail::concat(
            "factoryAreaPerTile must be > 0 (got ",
            config.factoryAreaPerTile, ")"));
    }
    MicroarchConfig level1;
    level1.tech = config.tech;
    level1.teleport = config.teleport;
    MultiplexedExecution exec(graph, model, level1, config.tileSize,
                              config.factoryAreaPerTile);
    const ArchRunResult run = exec.run(graph, model);

    QalypsoRunResult out;
    out.makespan = run.makespan;
    out.tiles = exec.tiles;
    out.totalFactoryArea = run.ancillaArea;
    out.intraTile2q = exec.intraTile2q;
    out.interTile2q = exec.interTile2q;
    out.teleports = run.teleports;
    out.zerosConsumed = run.zerosConsumed;
    out.pi8Consumed = run.pi8Consumed;
    return out;
}

} // namespace qc
