/**
 * @file
 * The ion-trap layouts of paper Figures 9-11 and a minimum-latency
 * router over them: the oracle that derives the library's two
 * layout constants, kFig11Movement (error/AncillaSim.hh) and
 * kDataQubitArea (factory/Allocation.hh).
 *
 * A layout is a grid of macroblocks. Each macroblock is a fixed
 * pattern of electrodes providing movement channels in some subset
 * of the four directions and, for the gate variants, a gate
 * location where laser pulses can be applied to resident ions.
 * Areas are counted in macroblocks (Section 4.1).
 *
 * Movement cost follows Table 4: each macroblock crossed in a
 * straight line costs one Straight Move (t_move); each change of
 * heading costs one Turn (t_turn). The router is a Dijkstra search
 * over (cell, heading) states, so it prefers longer straight paths
 * over shorter ones with more turns exactly as the hardware does.
 */

#ifndef QC_TESTS_LAYOUT_ROUTER_HH
#define QC_TESTS_LAYOUT_ROUTER_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "codes/SteaneCode.hh"
#include "common/Logging.hh"
#include "common/Params.hh"
#include "common/Types.hh"
#include "error/AncillaSim.hh"

namespace qc::layout {

/** Macroblock kinds (Figure 9). */
enum class MacroblockKind : std::uint8_t
{
    Empty,              ///< no electrodes: not part of the layout
    DeadEndGate,        ///< gate location, single port
    StraightChannelGate,///< gate location on a through channel
    StraightChannel,    ///< plain through channel
    Turn,               ///< 90-degree corner
    ThreeWay,           ///< T intersection
    FourWay,            ///< + intersection
};

/** Cardinal directions used for ports and routing. */
enum class Dir : std::uint8_t { North, East, South, West };

/** Opposite direction. */
constexpr Dir
opposite(Dir d)
{
    switch (d) {
      case Dir::North: return Dir::South;
      case Dir::East:  return Dir::West;
      case Dir::South: return Dir::North;
      case Dir::West:  return Dir::East;
    }
    return Dir::North;
}

/** True if ions can sit at a gate location in this block. */
constexpr bool
hasGateLocation(MacroblockKind kind)
{
    return kind == MacroblockKind::DeadEndGate
        || kind == MacroblockKind::StraightChannelGate;
}

/**
 * Port bitmask for a block in its canonical orientation. Straight
 * blocks run North-South when `vertical`, else East-West; turns
 * connect North-East when `vertical`, else South-West; dead ends
 * open North/East respectively. Orientation is a property of the
 * grid cell, not the kind.
 */
inline unsigned
portMask(MacroblockKind kind, bool vertical)
{
    constexpr unsigned north = 1u << static_cast<unsigned>(Dir::North);
    constexpr unsigned east = 1u << static_cast<unsigned>(Dir::East);
    constexpr unsigned south = 1u << static_cast<unsigned>(Dir::South);
    constexpr unsigned west = 1u << static_cast<unsigned>(Dir::West);

    switch (kind) {
      case MacroblockKind::Empty:
        return 0;
      case MacroblockKind::DeadEndGate:
        return vertical ? north : east;
      case MacroblockKind::StraightChannelGate:
      case MacroblockKind::StraightChannel:
        return vertical ? (north | south) : (east | west);
      case MacroblockKind::Turn:
        return vertical ? (north | east) : (south | west);
      case MacroblockKind::ThreeWay:
        return vertical ? (north | south | east)
                        : (east | west | south);
      case MacroblockKind::FourWay:
        return north | east | south | west;
    }
    return 0;
}

/** Per-direction port test against a portMask() value. */
constexpr bool
hasPort(unsigned mask, Dir d)
{
    return mask & (1u << static_cast<unsigned>(d));
}

/** Grid coordinate (x = column, y = row; y grows southward). */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord &o) const = default;
};

/** One grid cell: a macroblock kind plus its orientation. */
struct Cell
{
    MacroblockKind kind = MacroblockKind::Empty;
    bool vertical = false;
};

/** A rectangular field of macroblocks. */
class LayoutGrid
{
  public:
    LayoutGrid(int width, int height)
        : width_(width), height_(height),
          cells_(static_cast<std::size_t>(width)
                 * static_cast<std::size_t>(height))
    {
        if (width <= 0 || height <= 0)
            fatal("LayoutGrid: dimensions must be positive");
    }

    int width() const { return width_; }
    int height() const { return height_; }

    /** True if c lies within the rectangle. */
    bool
    inBounds(Coord c) const
    {
        return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
    }

    /** Cell accessor (must be in bounds). */
    const Cell &
    at(Coord c) const
    {
        if (!inBounds(c))
            panic("LayoutGrid::at out of bounds (", c.x, ",", c.y, ")");
        return cells_[static_cast<std::size_t>(c.y)
                      * static_cast<std::size_t>(width_)
                      + static_cast<std::size_t>(c.x)];
    }

    /** Set a cell (must be in bounds). */
    void
    set(Coord c, MacroblockKind kind, bool vertical = false)
    {
        if (!inBounds(c))
            panic("LayoutGrid::set out of bounds (", c.x, ",", c.y, ")");
        cells_[static_cast<std::size_t>(c.y)
               * static_cast<std::size_t>(width_)
               + static_cast<std::size_t>(c.x)] = {kind, vertical};
    }

    /** Number of non-empty macroblocks (the layout's area). */
    Area
    occupiedArea() const
    {
        Area area = 0;
        for (const Cell &cell : cells_) {
            if (cell.kind != MacroblockKind::Empty)
                area += 1;
        }
        return area;
    }

    /** Number of gate locations in the layout. */
    int
    gateLocationCount() const
    {
        int count = 0;
        for (const Cell &cell : cells_) {
            if (hasGateLocation(cell.kind))
                ++count;
        }
        return count;
    }

    /** All coordinates holding gate locations, row-major. */
    std::vector<Coord>
    gateLocations() const
    {
        std::vector<Coord> out;
        for (int y = 0; y < height_; ++y) {
            for (int x = 0; x < width_; ++x) {
                if (hasGateLocation(at({x, y}).kind))
                    out.push_back({x, y});
            }
        }
        return out;
    }

    /**
     * True if an ion can cross directly from `from` toward
     * direction d: both cells must exist, be non-empty, and expose
     * facing ports.
     */
    bool
    connected(Coord from, Dir d) const
    {
        const Coord to = step(from, d);
        if (!inBounds(from) || !inBounds(to))
            return false;
        const Cell &a = at(from);
        const Cell &b = at(to);
        if (a.kind == MacroblockKind::Empty
            || b.kind == MacroblockKind::Empty) {
            return false;
        }
        return hasPort(portMask(a.kind, a.vertical), d)
            && hasPort(portMask(b.kind, b.vertical), opposite(d));
    }

    /** Neighbor coordinate in direction d (may be out of bounds). */
    static Coord
    step(Coord c, Dir d)
    {
        switch (d) {
          case Dir::North: return {c.x, c.y - 1};
          case Dir::East:  return {c.x + 1, c.y};
          case Dir::South: return {c.x, c.y + 1};
          case Dir::West:  return {c.x - 1, c.y};
        }
        return c;
    }

  private:
    int width_;
    int height_;
    std::vector<Cell> cells_;
};

/** Movement-op tally for one routed path. */
struct RouteCost
{
    int straights = 0; ///< macroblocks crossed straight
    int turns = 0;     ///< heading changes

    /** Total latency under a technology's move parameters. */
    Time
    latency(const IonTrapParams &tech) const
    {
        return straights * tech.tmove + turns * tech.tturn;
    }

    /** Total movement operations (for error accounting). */
    int moveOps() const { return straights + turns; }
};

/**
 * Route an ion from one cell to another.
 *
 * @return the cheapest RouteCost, or nullopt if unreachable.
 */
inline std::optional<RouteCost>
route(const LayoutGrid &grid, Coord from, Coord to,
      const IonTrapParams &tech)
{
    constexpr int numDirs = 4;
    struct State
    {
        Time cost;
        int index; // (y * width + x) * 4 + dir

        bool operator>(const State &o) const { return cost > o.cost; }
    };

    if (!grid.inBounds(from) || !grid.inBounds(to))
        return std::nullopt;
    if (from == to)
        return RouteCost{};

    const int w = grid.width();
    const int h = grid.height();
    const std::size_t states =
        static_cast<std::size_t>(w) * static_cast<std::size_t>(h)
        * numDirs;
    constexpr Time inf = std::numeric_limits<Time>::max();
    std::vector<Time> dist(states, inf);
    // Track (straights, turns) along the best path per state so the
    // caller gets op counts, not just latency.
    std::vector<RouteCost> tally(states);

    auto idx = [w](Coord c, int dir) {
        return (static_cast<std::size_t>(c.y)
                    * static_cast<std::size_t>(w)
                + static_cast<std::size_t>(c.x))
                   * numDirs
               + static_cast<std::size_t>(dir);
    };

    std::priority_queue<State, std::vector<State>, std::greater<>> pq;

    // Seed: leave the source in any connected direction.
    for (int d = 0; d < numDirs; ++d) {
        const Dir dir = static_cast<Dir>(d);
        if (!grid.connected(from, dir))
            continue;
        const Coord next = LayoutGrid::step(from, dir);
        const std::size_t i = idx(next, d);
        if (tech.tmove < dist[i]) {
            dist[i] = tech.tmove;
            tally[i] = {1, 0};
            pq.push({tech.tmove, static_cast<int>(i)});
        }
    }

    while (!pq.empty()) {
        const State s = pq.top();
        pq.pop();
        const std::size_t si = static_cast<std::size_t>(s.index);
        if (s.cost > dist[si])
            continue;
        const int dir_in = s.index % numDirs;
        const int flat = s.index / numDirs;
        const Coord here{flat % w, flat / w};
        if (here == to) {
            return tally[si];
        }
        for (int d = 0; d < numDirs; ++d) {
            const Dir dir = static_cast<Dir>(d);
            if (!grid.connected(here, dir))
                continue;
            const Coord next = LayoutGrid::step(here, dir);
            const bool turning = d != dir_in;
            const Time cost = s.cost + tech.tmove
                + (turning ? tech.tturn : 0);
            const std::size_t i = idx(next, d);
            if (cost < dist[i]) {
                dist[i] = cost;
                tally[i] = tally[si];
                tally[i].straights += 1;
                tally[i].turns += turning ? 1 : 0;
                pq.push({cost, static_cast<int>(i)});
            }
        }
    }
    return std::nullopt;
}

/**
 * The data-qubit compute region of Figure 10: one column of seven
 * Straight Channel Gate macroblocks (one gate location per physical
 * qubit of the [[7,1,3]] block), with full intersections on both
 * flanks so ions can enter from either side of the interconnect.
 * The grid is 3 wide x 7 high; its data area is the 7 gate
 * macroblocks (the flanking channels belong to the interconnect).
 */
inline LayoutGrid
buildDataQubitRegion()
{
    LayoutGrid grid(3, SteaneCode::numPhysical);
    for (int y = 0; y < SteaneCode::numPhysical; ++y) {
        grid.set({0, y}, MacroblockKind::FourWay);
        grid.set({1, y}, MacroblockKind::StraightChannelGate,
                 /*vertical=*/false);
        grid.set({2, y}, MacroblockKind::FourWay);
    }
    return grid;
}

/**
 * The simple ancilla factory of Figure 11: 10 wide x 9 high = 90
 * macroblocks. Gate rows at y = 1, 4, 7 hold ten gate locations each
 * (seven encode plus three verification qubits); the remaining rows
 * are full intersections used for communication.
 */
inline LayoutGrid
buildFig11Factory()
{
    LayoutGrid grid(10, 9);
    for (int y = 0; y < 9; ++y) {
        const bool gate_row = (y == 1 || y == 4 || y == 7);
        for (int x = 0; x < 10; ++x) {
            if (gate_row) {
                grid.set({x, y}, MacroblockKind::StraightChannelGate,
                         /*vertical=*/true);
            } else {
                grid.set({x, y}, MacroblockKind::FourWay);
            }
        }
    }
    return grid;
}

/**
 * A MovementModel from a routed layout: the straight/turn counts
 * averaged over gate-location pairs in different rows at most two
 * columns apart, the typical two-qubit interaction inside a factory
 * (a qubit travels to its partner's gate location).
 */
inline MovementModel
routedMovement(const LayoutGrid &layout, const IonTrapParams &tech)
{
    const auto gates = layout.gateLocations();
    double straights = 0;
    double turns = 0;
    int pairs = 0;
    for (const Coord &a : gates) {
        for (const Coord &b : gates) {
            if (a.y >= b.y || std::abs(a.x - b.x) > 2)
                continue;
            const auto cost = route(layout, a, b, tech);
            if (!cost)
                continue;
            straights += cost->straights;
            turns += cost->turns;
            ++pairs;
        }
    }
    MovementModel model;
    if (pairs > 0) {
        model.movesPerCx = static_cast<int>(
            std::lround(straights / pairs));
        model.turnsPerCx =
            static_cast<int>(std::lround(turns / pairs));
    } else {
        warn("routedMovement: no routable gate pairs; "
             "keeping defaults");
    }
    model.movesPerMeas = 1;
    return model;
}

} // namespace qc::layout

#endif // QC_TESTS_LAYOUT_ROUTER_HH
