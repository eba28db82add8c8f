/**
 * @file
 * Tests for the layout oracle (tests/LayoutRouter.hh): port
 * semantics, routing costs (straights vs turns), the canonical
 * builders' areas (Figures 10 and 11), and the library's two layout
 * constants against the routed layouts they stand for.
 */

#include <gtest/gtest.h>

#include <array>

#include "LayoutRouter.hh"
#include "error/AncillaSim.hh"
#include "factory/Allocation.hh"

namespace qc {
namespace {

using namespace layout;

/** A MovementModel's four counts, compared as one value. */
std::array<int, 4>
counts(const MovementModel &m)
{
    return {m.movesPerCx, m.turnsPerCx, m.movesPerMeas, m.movesPer1q};
}

TEST(Macroblock, PortMasks)
{
    const unsigned straight_v =
        portMask(MacroblockKind::StraightChannel, true);
    EXPECT_TRUE(hasPort(straight_v, Dir::North));
    EXPECT_TRUE(hasPort(straight_v, Dir::South));
    EXPECT_FALSE(hasPort(straight_v, Dir::East));

    const unsigned four = portMask(MacroblockKind::FourWay, false);
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West})
        EXPECT_TRUE(hasPort(four, d));

    EXPECT_EQ(portMask(MacroblockKind::Empty, false), 0u);
}

TEST(Macroblock, GateLocations)
{
    EXPECT_TRUE(hasGateLocation(MacroblockKind::DeadEndGate));
    EXPECT_TRUE(hasGateLocation(MacroblockKind::StraightChannelGate));
    EXPECT_FALSE(hasGateLocation(MacroblockKind::FourWay));
    EXPECT_FALSE(hasGateLocation(MacroblockKind::StraightChannel));
}

TEST(Grid, AreaCountsOccupiedCells)
{
    LayoutGrid g(4, 4);
    EXPECT_DOUBLE_EQ(g.occupiedArea(), 0.0);
    g.set({0, 0}, MacroblockKind::FourWay);
    g.set({1, 0}, MacroblockKind::StraightChannel);
    EXPECT_DOUBLE_EQ(g.occupiedArea(), 2.0);
}

TEST(Grid, ConnectivityRequiresFacingPorts)
{
    LayoutGrid g(3, 1);
    g.set({0, 0}, MacroblockKind::StraightChannel, false);
    g.set({1, 0}, MacroblockKind::StraightChannel, false);
    g.set({2, 0}, MacroblockKind::StraightChannel, true); // vertical!
    EXPECT_TRUE(g.connected({0, 0}, Dir::East));
    EXPECT_FALSE(g.connected({1, 0}, Dir::East)); // facing wall
    EXPECT_FALSE(g.connected({0, 0}, Dir::North));
}

TEST(Grid, OutOfBoundsIsNotConnected)
{
    LayoutGrid g(2, 2);
    g.set({0, 0}, MacroblockKind::FourWay);
    EXPECT_FALSE(g.connected({0, 0}, Dir::North));
    EXPECT_FALSE(g.connected({0, 0}, Dir::West));
}

class RouteTest : public ::testing::Test
{
  protected:
    IonTrapParams tech_ = IonTrapParams::paper();
};

TEST_F(RouteTest, StraightCorridor)
{
    LayoutGrid g(5, 1);
    for (int x = 0; x < 5; ++x)
        g.set({x, 0}, MacroblockKind::StraightChannel, false);
    const auto cost = route(g, {0, 0}, {4, 0}, tech_);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(cost->straights, 4);
    EXPECT_EQ(cost->turns, 0);
    EXPECT_EQ(cost->latency(tech_), usec(4));
}

TEST_F(RouteTest, LShapedPathCountsOneTurn)
{
    // 3x3 all four-way: L path from (0,0) to (2,2).
    LayoutGrid g(3, 3);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 3; ++x)
            g.set({x, y}, MacroblockKind::FourWay);
    const auto cost = route(g, {0, 0}, {2, 2}, tech_);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(cost->straights, 4);
    EXPECT_EQ(cost->turns, 1);
    EXPECT_EQ(cost->latency(tech_), usec(14));
}

TEST_F(RouteTest, PrefersFewerTurnsOverShorterDistance)
{
    // A 5x3 grid where the direct middle path needs two turns but a
    // longer straight path needs one: Dijkstra must pick by latency
    // (tturn = 10 tmove).
    LayoutGrid g(7, 3);
    for (int x = 0; x < 7; ++x) {
        g.set({x, 0}, MacroblockKind::FourWay);
        g.set({x, 2}, MacroblockKind::FourWay);
    }
    g.set({0, 1}, MacroblockKind::StraightChannel, true);
    g.set({6, 1}, MacroblockKind::StraightChannel, true);
    const auto cost = route(g, {0, 0}, {6, 2}, tech_);
    ASSERT_TRUE(cost.has_value());
    // Around: 6 east + turn + 2 south (or equivalent): 8 straights,
    // 1 turn = 18 us beats 2-turn alternatives of equal length.
    EXPECT_EQ(cost->turns, 1);
    EXPECT_EQ(cost->latency(tech_), usec(18));
}

TEST_F(RouteTest, UnreachableReturnsNullopt)
{
    LayoutGrid g(3, 1);
    g.set({0, 0}, MacroblockKind::StraightChannel, false);
    // gap at x=1
    g.set({2, 0}, MacroblockKind::StraightChannel, false);
    EXPECT_FALSE(route(g, {0, 0}, {2, 0}, tech_).has_value());
}

TEST_F(RouteTest, SameCellIsFree)
{
    LayoutGrid g(2, 1);
    g.set({0, 0}, MacroblockKind::FourWay);
    const auto cost = route(g, {0, 0}, {0, 0}, tech_);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(cost->moveOps(), 0);
}

TEST(Builders, DataRegionMatchesFigure10)
{
    const LayoutGrid region = buildDataQubitRegion();
    EXPECT_EQ(region.gateLocationCount(), 7);
    // Production charges a data qubit its gate macroblocks.
    EXPECT_DOUBLE_EQ(region.gateLocationCount(), kDataQubitArea);
    // Every gate location must be reachable from the top-left
    // interconnect corner.
    const IonTrapParams tech;
    for (const Coord &gate : region.gateLocations()) {
        EXPECT_TRUE(route(region, {0, 0}, gate, tech).has_value());
    }
}

TEST(Builders, SimpleFactoryMatchesFigure11)
{
    const LayoutGrid factory = buildFig11Factory();
    EXPECT_DOUBLE_EQ(factory.occupiedArea(), 90.0);
    EXPECT_EQ(factory.gateLocationCount(), 30); // 3 rows of 10
}

TEST(Builders, SimpleFactoryFullyRoutable)
{
    const LayoutGrid factory = buildFig11Factory();
    const IonTrapParams tech;
    const auto gates = factory.gateLocations();
    // Every pair of gate locations must be mutually reachable.
    for (std::size_t i = 0; i < gates.size(); i += 7) {
        for (std::size_t j = 0; j < gates.size(); j += 5) {
            EXPECT_TRUE(
                route(factory, gates[i], gates[j], tech).has_value())
                << i << "->" << j;
        }
    }
}

TEST(Builders, RoutedMovementIsTheFig11Constant)
{
    // Production charges kFig11Movement instead of routing the
    // factory. The routed counts must equal it wherever a move costs
    // time: move and turn latencies from 1 ns through the paper's
    // values to a million times them, and free turns.
    const LayoutGrid factory = buildFig11Factory();
    const IonTrapParams paper = IonTrapParams::paper();
    for (Time tmove : {Time{1}, paper.tmove, paper.tmove * 1000000}) {
        for (Time tturn : {Time{0}, Time{1}, paper.tturn,
                           paper.tturn * 1000000}) {
            IonTrapParams tech = paper;
            tech.tmove = tmove;
            tech.tturn = tturn;
            EXPECT_EQ(counts(routedMovement(factory, tech)),
                      counts(kFig11Movement))
                << "tmove " << tmove << " ns, tturn " << tturn << " ns";
        }
    }
}

TEST(Builders, FreeMovesRouteByTieBreak)
{
    // With free straight moves, paths differ in cost only by their
    // turns (and not at all when turns are free too), so the
    // search's tie-break picks these counts. Production does not
    // follow them: it charges kFig11Movement at every technology
    // point.
    const LayoutGrid factory = buildFig11Factory();
    IonTrapParams tech = IonTrapParams::paper();
    tech.tmove = 0;
    EXPECT_EQ(counts(routedMovement(factory, tech)),
              (std::array{6, 2, 1, 0}));
    tech.tturn = 0;
    EXPECT_EQ(counts(routedMovement(factory, tech)),
              (std::array{12, 4, 1, 0}));
}

} // namespace
} // namespace qc
