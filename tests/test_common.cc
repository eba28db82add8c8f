/**
 * @file
 * Unit tests for the common module: units, parameters, RNG,
 * statistics, table formatting, the injectable wall clock and the
 * one parallel-for.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/Clock.hh"
#include "common/ParallelFor.hh"
#include "common/Params.hh"
#include "common/Rng.hh"
#include "common/Stats.hh"
#include "common/Table.hh"
#include "common/Types.hh"

namespace qc {
namespace {

TEST(Types, MicrosecondConversionIsExact)
{
    EXPECT_EQ(usec(1), 1000);
    EXPECT_EQ(usec(51), 51000);
    EXPECT_EQ(msec(1), 1000000);
    EXPECT_DOUBLE_EQ(toUs(usec(323)), 323.0);
    EXPECT_DOUBLE_EQ(toMs(msec(7)), 7.0);
}

TEST(Types, BandwidthOfSingleItem)
{
    // One item per 100 us = 10 per ms.
    EXPECT_DOUBLE_EQ(bandwidthOf(usec(100)), 10.0);
}

TEST(Types, BandwidthScalesWithItemsAndStages)
{
    // 7 items per 95 us with 3 internal stages: the paper's CX
    // stage bandwidth, 221.05 qubits/ms.
    const double bw = bandwidthOf(usec(95), 7, 3);
    EXPECT_NEAR(bw, 221.05, 0.01);
}

TEST(Params, PaperDefaultsMatchTables1And4)
{
    const IonTrapParams p = IonTrapParams::paper();
    EXPECT_EQ(p.t1q, usec(1));
    EXPECT_EQ(p.t2q, usec(10));
    EXPECT_EQ(p.tmeas, usec(50));
    EXPECT_EQ(p.tprep, usec(51));
    EXPECT_EQ(p.tmove, usec(1));
    EXPECT_EQ(p.tturn, usec(10));

    const ErrorParams e = ErrorParams::paper();
    EXPECT_DOUBLE_EQ(e.pGate, 1e-4);
    EXPECT_DOUBLE_EQ(e.pMove, 1e-6);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, Uniform01MeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform01();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliRespectsProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.25))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, BelowIsBoundedAndCoversRange)
{
    Rng rng(17);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.below(15);
        EXPECT_LT(v, 15u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 15u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(99);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Wilson, CoversTrueProportion)
{
    // 30 successes in 1000 trials, p-hat = 0.03.
    const Interval ci = wilsonInterval(30, 1000);
    EXPECT_LT(ci.lo, 0.03);
    EXPECT_GT(ci.hi, 0.03);
    EXPECT_GT(ci.lo, 0.015);
    EXPECT_LT(ci.hi, 0.05);
}

TEST(Wilson, ZeroSuccessesGivesZeroLowerBound)
{
    const Interval ci = wilsonInterval(0, 1000);
    EXPECT_DOUBLE_EQ(ci.lo, 0.0);
    EXPECT_GT(ci.hi, 0.0);
    EXPECT_LT(ci.hi, 0.01);
}

TEST(Wilson, AllSuccessesGivesOneUpperBound)
{
    const Interval ci = wilsonInterval(1000, 1000);
    EXPECT_DOUBLE_EQ(ci.hi, 1.0);
    EXPECT_GT(ci.lo, 0.99);
}

TEST(TimeSeriesBinner, PointSamplesLandInBins)
{
    TimeSeriesBinner b(100.0, 10);
    b.add(5.0);
    b.add(95.0, 2.0);
    EXPECT_DOUBLE_EQ(b.bins()[0], 1.0);
    EXPECT_DOUBLE_EQ(b.bins()[9], 2.0);
}

TEST(TimeSeriesBinner, RangeSplitsProportionally)
{
    TimeSeriesBinner b(100.0, 10);
    // Weight 10 over [5, 25): 5 units in bin 0, 10 in bin 1, 5 in
    // bin 2.
    b.addRange(5.0, 25.0, 10.0);
    EXPECT_NEAR(b.bins()[0], 2.5, 1e-9);
    EXPECT_NEAR(b.bins()[1], 5.0, 1e-9);
    EXPECT_NEAR(b.bins()[2], 2.5, 1e-9);
    double total = 0;
    for (double v : b.bins())
        total += v;
    EXPECT_NEAR(total, 10.0, 1e-9);
}

TEST(TimeSeriesBinner, ClampsOutOfRange)
{
    TimeSeriesBinner b(10.0, 5);
    b.add(-3.0);
    b.add(42.0);
    EXPECT_DOUBLE_EQ(b.bins()[0], 1.0);
    EXPECT_DOUBLE_EQ(b.bins()[4], 1.0);
}

TEST(TimeSeriesBinner, RejectsNoBinsAndEmptySpans)
{
    // Checked in every build, not only under asserts: with no bins
    // the binner would write through an empty vector.
    EXPECT_THROW(TimeSeriesBinner(100.0, 0), std::invalid_argument);
    EXPECT_THROW(TimeSeriesBinner(0.0, 10), std::invalid_argument);
    EXPECT_THROW(TimeSeriesBinner(-1.0, 10), std::invalid_argument);
    EXPECT_THROW(TimeSeriesBinner(std::nan(""), 10),
                 std::invalid_argument);
}

TEST(Table, AlignsColumnsAndSeparatesHeader)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"long-name", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtFixed(3.14159, 2), "3.14");
    EXPECT_EQ(fmtInt(42), "42");
    EXPECT_EQ(fmtPct(0.782, 1), "78.2%");
}

TEST(Clock, SystemClockIsTheDefaultAndLooksLikeEpochMs)
{
    // No fake installed: reads must come from the real system
    // clock. 2020-01-01 in epoch ms is a loose sanity floor.
    const std::int64_t t = wallClockEpochMs();
    EXPECT_GT(t, INT64_C(1577836800000));
    EXPECT_GE(wallClockEpochMs(), t);
}

TEST(Clock, FakeClockOnlyMovesWhenAdvanced)
{
    FakeWallClock fake(INT64_C(1000));
    ScopedWallClock scoped(fake);
    EXPECT_EQ(wallClockEpochMs(), 1000);
    EXPECT_EQ(wallClockEpochMs(), 1000);
    fake.advanceMs(250);
    EXPECT_EQ(wallClockEpochMs(), 1250);
    fake.setMs(INT64_C(5000));
    EXPECT_EQ(wallClockEpochMs(), 5000);
}

TEST(Clock, ScopedInstallRestoresThePreviousClock)
{
    FakeWallClock outer(INT64_C(10));
    ScopedWallClock outerScope(outer);
    {
        FakeWallClock inner(INT64_C(99));
        ScopedWallClock innerScope(inner);
        EXPECT_EQ(wallClockEpochMs(), 99);
    }
    // Leaving the inner scope restores the outer fake, not the
    // system clock.
    EXPECT_EQ(wallClockEpochMs(), 10);
}

TEST(ParallelFor, RunsEveryTaskExactlyOnce)
{
    std::vector<std::atomic<int>> hits(503);
    parallelFor(4, hits.size(), [&](std::size_t i, std::size_t) {
        hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesTheFirstException)
{
    std::atomic<int> completed{0};
    EXPECT_THROW(parallelFor(2, 64,
                             [&](std::size_t i, std::size_t) {
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                                 completed.fetch_add(1);
                             }),
                 std::runtime_error);
    // The failing task does not abandon the rest of the sweep.
    EXPECT_EQ(completed.load(), 63);
}

TEST(ParallelFor, SurvivesEveryTaskThrowing)
{
    // Worst case for the drain-then-rethrow contract: all tasks
    // throw on all workers. parallelFor must still terminate (no
    // deadlock, no std::terminate from a second in-flight
    // exception) and rethrow exactly one of them.
    std::atomic<int> attempts{0};
    EXPECT_THROW(parallelFor(4, 97,
                             [&](std::size_t, std::size_t) {
                                 attempts.fetch_add(1);
                                 throw std::invalid_argument("all");
                             }),
                 std::invalid_argument);
    EXPECT_EQ(attempts.load(), 97);

    // Nothing is left behind for the next call.
    std::atomic<int> completed{0};
    parallelFor(4, 16, [&](std::size_t, std::size_t) {
        completed.fetch_add(1);
    });
    EXPECT_EQ(completed.load(), 16);
}

TEST(ParallelFor, StopPredicateDrainsWithoutNewTasks)
{
    // A stop that is true from the start runs nothing.
    std::atomic<int> ran{0};
    parallelFor(
        2, 64, [&](std::size_t, std::size_t) { ran.fetch_add(1); },
        [] { return true; });
    EXPECT_EQ(ran.load(), 0);

    // A stop raised mid-run keeps every started task's effect and
    // never starts another after the flag is observed.
    std::atomic<bool> stop{false};
    std::atomic<int> started{0};
    parallelFor(
        1, 64,
        [&](std::size_t, std::size_t) {
            if (started.fetch_add(1) + 1 == 5)
                stop.store(true);
        },
        [&] { return stop.load(); });
    EXPECT_EQ(started.load(), 5);

    // A stop that throws ends the claims and surfaces like a task's
    // exception instead of escaping a worker thread.
    EXPECT_THROW(parallelFor(
                     2, 64,
                     [&](std::size_t, std::size_t) { ran.fetch_add(1); },
                     []() -> bool { throw std::runtime_error("stop"); }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, WorkerIndexIsBelowTheResolvedThreadCount)
{
    EXPECT_EQ(resolveThreads(3), 3);
    EXPECT_GE(resolveThreads(0), 1);
    for (const int threads : {0, 1, 3, 8}) {
        std::vector<std::size_t> workerOf(200);
        parallelFor(threads, workerOf.size(),
                    [&](std::size_t task, std::size_t worker) {
                        workerOf[task] = worker;
                    });
        for (const std::size_t worker : workerOf) {
            EXPECT_LT(worker,
                      static_cast<std::size_t>(resolveThreads(threads)))
                << "threads " << threads;
        }
    }
}

TEST(ParallelFor, OneThreadRunsOnTheCallersThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(1, 10, [&](std::size_t task, std::size_t worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0u);
        order.push_back(task);
    });
    // One worker claims the tasks in ascending order.
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NoTasksCallsNothing)
{
    parallelFor(
        4, 0, [](std::size_t, std::size_t) { ADD_FAILURE(); },
        [] {
            ADD_FAILURE() << "stop polled with nothing to run";
            return false;
        });
}

} // namespace
} // namespace qc
