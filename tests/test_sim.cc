/**
 * @file
 * Tests for the discrete-event core: event ordering, determinism,
 * and the token-pool production models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/TokenPool.hh"

namespace qc {
namespace {

using Kind = EventQueue::Kind;

/** Fires each event by recording its node. */
struct Recorder
{
    std::vector<std::uint32_t> nodes;

    void
    operator()(const EventQueue::Event &event)
    {
        nodes.push_back(event.node);
    }
};

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue queue;
    Recorder fired;
    queue.schedule(usec(30), 3, Kind::Complete);
    queue.schedule(usec(10), 1, Kind::Complete);
    queue.schedule(usec(20), 2, Kind::Complete);
    queue.run(fired);
    EXPECT_EQ(fired.nodes, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimestamps)
{
    EventQueue queue;
    Recorder fired;
    for (std::uint32_t i = 0; i < 10; ++i)
        queue.schedule(usec(5), i, i % 2 ? Kind::Launch : Kind::Complete);
    queue.run(fired);
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(fired.nodes[i], i);
}

TEST(EventQueue, CarriesNodeAndKind)
{
    EventQueue queue;
    queue.schedule(usec(7), 42, Kind::Launch);
    std::vector<EventQueue::Event> fired;
    queue.run([&](const EventQueue::Event &e) { fired.push_back(e); });
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].when, usec(7));
    EXPECT_EQ(fired[0].node, 42u);
    EXPECT_EQ(fired[0].kind, Kind::Launch);
}

TEST(EventQueue, HandlersMayScheduleMore)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(0, 0, Kind::Launch);
    const Time end = queue.run([&](const EventQueue::Event &e) {
        ++fired;
        if (fired < 5)
            queue.schedule(queue.now() + usec(10), e.node + 1,
                           Kind::Complete);
    });
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(end, usec(40));
}

TEST(EventQueue, SameTickEventsScheduledWhileFiringRunLast)
{
    // An event scheduled for the current tick while that tick fires
    // goes behind every event already queued for it.
    EventQueue queue;
    Recorder fired;
    queue.schedule(usec(5), 0, Kind::Launch);
    queue.schedule(usec(5), 1, Kind::Launch);
    queue.run([&](const EventQueue::Event &e) {
        fired(e);
        if (e.node == 0)
            queue.schedule(queue.now(), 2, Kind::Complete);
    });
    EXPECT_EQ(fired.nodes, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(EventQueue, NowAdvancesMonotonically)
{
    EventQueue queue;
    Time last = -1;
    for (Time t : {usec(5), usec(1), usec(9), usec(1)})
        queue.schedule(t, 0, Kind::Complete);
    queue.run([&](const EventQueue::Event &) {
        EXPECT_GE(queue.now(), last);
        last = queue.now();
    });
}

TEST(EventQueueDeath, RejectsPastScheduling)
{
    EventQueue queue;
    queue.schedule(usec(10), 0, Kind::Complete);
    const auto schedulePast = [&](const EventQueue::Event &) {
        queue.schedule(usec(5), 1, Kind::Complete);
    };
    EXPECT_DEATH(queue.run(schedulePast), "past");
}

TEST(EventQueue, RunUntilStopsAtTheLimit)
{
    EventQueue queue;
    int fired = 0;
    const auto count = [&](const EventQueue::Event &) { ++fired; };
    for (Time t : {usec(10), usec(20), usec(30), usec(40)})
        queue.schedule(t, 0, Kind::Complete);
    // Events at the limit itself still fire.
    EXPECT_EQ(queue.runUntil(usec(20), count), usec(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(queue.now(), usec(20));
}

TEST(EventQueue, RunUntilAdvancesNowToLimitWhenCutOff)
{
    EventQueue queue;
    Recorder fired;
    queue.schedule(usec(100), 0, Kind::Complete);
    EXPECT_EQ(queue.runUntil(usec(60), fired), usec(60));
    EXPECT_EQ(queue.now(), usec(60));
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_TRUE(fired.nodes.empty());
}

TEST(EventQueue, RunUntilDrainsLikeRunWhenQueueEmpties)
{
    EventQueue queue;
    Recorder fired;
    queue.schedule(usec(15), 0, Kind::Complete);
    // Queue drains before the limit: now() stays at the last event.
    EXPECT_EQ(queue.runUntil(usec(1000), fired), usec(15));
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueue, RunResumesAfterRunUntil)
{
    EventQueue queue;
    Recorder fired;
    queue.schedule(usec(10), 1, Kind::Complete);
    queue.schedule(usec(30), 2, Kind::Complete);
    queue.runUntil(usec(20), fired);
    EXPECT_EQ(fired.nodes, (std::vector<std::uint32_t>{1}));
    // Remaining events stay queued and a later run() finishes them.
    EXPECT_EQ(queue.run(fired), usec(30));
    EXPECT_EQ(fired.nodes, (std::vector<std::uint32_t>{1, 2}));
}

TEST(EventQueueDeath, RunUntilRejectsPastLimits)
{
    EventQueue queue;
    Recorder fired;
    queue.schedule(usec(50), 0, Kind::Complete);
    queue.runUntil(usec(40), fired);
    EXPECT_DEATH(queue.runUntil(usec(30), fired), "past");
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
