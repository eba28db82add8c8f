/**
 * @file
 * Tests for the discrete-event core: event ordering, determinism,
 * and the token-pool production models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/Simulator.hh"
#include "sim/TokenPool.hh"

namespace qc {
namespace {

TEST(Simulator, FiresInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(usec(30), [&] { order.push_back(3); });
    sim.schedule(usec(10), [&] { order.push_back(1); });
    sim.schedule(usec(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, StableForEqualTimestamps)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.schedule(usec(5), [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, HandlersMayScheduleMore)
{
    Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            sim.schedule(sim.now() + usec(10), chain);
    };
    sim.schedule(0, chain);
    const Time end = sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(end, usec(40));
}

TEST(Simulator, NowAdvancesMonotonically)
{
    Simulator sim;
    Time last = -1;
    for (Time t : {usec(5), usec(1), usec(9), usec(1)}) {
        sim.schedule(t, [&] {
            EXPECT_GE(sim.now(), last);
            last = sim.now();
        });
    }
    sim.run();
}

TEST(SimulatorDeath, RejectsPastScheduling)
{
    Simulator sim;
    sim.schedule(usec(10), [&] {
        sim.schedule(usec(5), [] {});
    });
    EXPECT_DEATH(sim.run(), "past");
}

TEST(Simulator, RunUntilStopsAtTheLimit)
{
    Simulator sim;
    int fired = 0;
    for (Time t : {usec(10), usec(20), usec(30), usec(40)})
        sim.schedule(t, [&] { ++fired; });
    // Events at the limit itself still fire.
    EXPECT_EQ(sim.runUntil(usec(20)), usec(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pending(), 2u);
    EXPECT_EQ(sim.now(), usec(20));
}

TEST(Simulator, RunUntilAdvancesNowToLimitWhenCutOff)
{
    Simulator sim;
    sim.schedule(usec(100), [] {});
    EXPECT_EQ(sim.runUntil(usec(60)), usec(60));
    EXPECT_EQ(sim.now(), usec(60));
    EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilDrainsLikeRunWhenQueueEmpties)
{
    Simulator sim;
    sim.schedule(usec(15), [] {});
    // Queue drains before the limit: now() stays at the last event.
    EXPECT_EQ(sim.runUntil(usec(1000)), usec(15));
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunResumesAfterRunUntil)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(usec(10), [&] { order.push_back(1); });
    sim.schedule(usec(30), [&] { order.push_back(2); });
    sim.runUntil(usec(20));
    EXPECT_EQ(order, (std::vector<int>{1}));
    // Remaining events stay queued and a later run() finishes them.
    EXPECT_EQ(sim.run(), usec(30));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorDeath, RunUntilRejectsPastLimits)
{
    Simulator sim;
    sim.schedule(usec(50), [] {});
    sim.runUntil(usec(40));
    EXPECT_DEATH(sim.runUntil(usec(30)), "past");
}

TEST(RateTokenPool, TokensArriveAtRate)
{
    // 2 tokens per ms -> k-th token at k * 0.5 ms.
    RateTokenPool pool(2.0);
    EXPECT_EQ(pool.claim(1), msec(1) / 2);
    EXPECT_EQ(pool.claim(1), msec(1));
    EXPECT_EQ(pool.claim(2), msec(2));
    EXPECT_EQ(pool.issued(), 4u);
}

TEST(RateTokenPool, StartupDelaysFirstToken)
{
    RateTokenPool pool(1.0, usec(300));
    EXPECT_EQ(pool.claim(1), usec(300) + msec(1));
}

TEST(RateTokenPool, InfiniteRateAlwaysAvailable)
{
    RateTokenPool pool(0.0);
    EXPECT_EQ(pool.claim(100), 0);
}

TEST(RateTokenPool, ZeroClaimIsFree)
{
    RateTokenPool pool(1.0);
    EXPECT_EQ(pool.claim(0), 0);
    EXPECT_EQ(pool.issued(), 0u);
}

} // namespace
} // namespace qc
