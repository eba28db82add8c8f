/**
 * @file
 * Tests for the sweep service: the filesystem lease protocol
 * (exclusive acquisition, nonce-checked renewal, wall-clock
 * expiry, single-winner steal, dead-owner fast path), the fault
 * injector's spec parsing, the serve protocol's JSON round trips,
 * and in-process coordinator+worker integration — including the
 * headline guarantee that the merged document is byte-identical
 * to a single-shot `runSweep` of the same spec, across drains,
 * stale leases, forged markers and coordinator restarts that
 * recover every published point from the result store.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/Clock.hh"
#include "common/DurableFile.hh"
#include "hoard/Hoard.hh"
#include "serve/Serve.hh"
#include "sweep/Sweep.hh"

namespace qc {
namespace {

namespace fs = std::filesystem;

Json
parse(const std::string &text)
{
    return Json::parse(text);
}

/** A fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + name + "-"
               + std::to_string(::getpid()))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    std::string file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

/** A 4-point mc-prep spec small enough for fast integration
 *  runs. */
const char *const kSpec = R"({
  "name": "serve_test",
  "runner": "mc-prep",
  "base": {"trials": 20000, "seed": 11},
  "axes": [
    {"field": "strategy", "values": ["basic", "verify_and_correct"]},
    {"field": "pGate", "values": [1e-4, 1e-3]}
  ]
})";

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------
// Lease protocol
// ---------------------------------------------------------------

TEST(Lease, AcquisitionIsExclusive)
{
    ScratchDir dir("qc_lease_excl");
    const std::string path = dir.file("a.lease");
    LeaseInfo mine;
    mine.pid = static_cast<int>(::getpid());
    mine.nonce = Lease::makeNonce();
    mine.ttlSeconds = 30.0;
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    // The filesystem arbitrates: a second O_EXCL create loses.
    EXPECT_FALSE(Lease::tryAcquire(path, mine));

    LeaseInfo stored;
    ASSERT_TRUE(Lease::read(path, stored));
    EXPECT_EQ(stored.pid, mine.pid);
    EXPECT_EQ(stored.nonce, mine.nonce);
    EXPECT_FALSE(stored.expired(nowEpochMs()));
    EXPECT_GT(stored.expiresMs, nowEpochMs() + 20000);
}

TEST(Lease, RenewRequiresTheOwnersNonce)
{
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_lease_renew");
    const std::string path = dir.file("a.lease");
    LeaseInfo mine;
    mine.pid = static_cast<int>(::getpid());
    mine.nonce = Lease::makeNonce();
    mine.ttlSeconds = 30.0;
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    LeaseInfo before;
    ASSERT_TRUE(Lease::read(path, before));

    clock.advanceMs(5000);
    ASSERT_TRUE(Lease::renew(path, mine));
    LeaseInfo after;
    ASSERT_TRUE(Lease::read(path, after));
    EXPECT_EQ(after.expiresMs, before.expiresMs + 5000);

    // A usurper's renewal must not resurrect its claim.
    LeaseInfo other = mine;
    other.nonce = Lease::makeNonce();
    EXPECT_FALSE(Lease::renew(path, other));
    LeaseInfo unchanged;
    ASSERT_TRUE(Lease::read(path, unchanged));
    EXPECT_EQ(unchanged.nonce, mine.nonce);
}

TEST(Lease, ExpiryIsWallClock)
{
    // Expiry is driven by the injectable wall clock, so the test
    // advances a fake clock past a realistic TTL instead of
    // shrinking the TTL and really sleeping.
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_lease_expire");
    const std::string path = dir.file("a.lease");
    LeaseInfo mine;
    mine.pid = static_cast<int>(::getpid());
    mine.nonce = Lease::makeNonce();
    mine.ttlSeconds = 30.0;
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    LeaseInfo stored;
    ASSERT_TRUE(Lease::read(path, stored));
    EXPECT_FALSE(stored.expired(nowEpochMs()));
    clock.advanceMs(29'999);
    EXPECT_FALSE(stored.expired(nowEpochMs()));
    clock.advanceMs(2);
    EXPECT_TRUE(stored.expired(nowEpochMs()));
    // Expired but the owner (this process) is alive: the dead-PID
    // fast path must NOT claim it is dead.
    EXPECT_TRUE(stored.ownerAlive());
}

TEST(Lease, ReleaseRequiresTheNonce)
{
    ScratchDir dir("qc_lease_release");
    const std::string path = dir.file("a.lease");
    LeaseInfo mine;
    mine.pid = static_cast<int>(::getpid());
    mine.nonce = Lease::makeNonce();
    mine.ttlSeconds = 30.0;
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    EXPECT_FALSE(Lease::release(path, "someone-else"));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_TRUE(Lease::release(path, mine.nonce));
    EXPECT_FALSE(fs::exists(path));
}

TEST(Lease, StealHasExactlyOneWinner)
{
    ScratchDir dir("qc_lease_steal");
    const std::string path = dir.file("a.lease");
    LeaseInfo mine;
    mine.pid = static_cast<int>(::getpid());
    mine.nonce = Lease::makeNonce();
    mine.ttlSeconds = 0.01;
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    EXPECT_TRUE(Lease::steal(path, dir.file(".aside")));
    EXPECT_FALSE(fs::exists(path));
    // The rename already happened; a second reclaimer loses.
    EXPECT_FALSE(Lease::steal(path, dir.file(".aside2")));
    // And the shard is acquirable again.
    EXPECT_TRUE(Lease::tryAcquire(path, mine));
}

TEST(Lease, DeadOwnerFastPath)
{
    // Fork a child that exits immediately: its reaped PID is a
    // known-dead process on this box.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);

    LeaseInfo dead;
    dead.pid = static_cast<int>(child);
    dead.nonce = "gone";
    dead.expiresMs = nowEpochMs() + 60000; // TTL far from expiry
    EXPECT_FALSE(dead.ownerAlive());

    LeaseInfo alive = dead;
    alive.pid = static_cast<int>(::getpid());
    EXPECT_TRUE(alive.ownerAlive());
}

TEST(Lease, TornLeaseFileReadsAsAbsent)
{
    ScratchDir dir("qc_lease_torn");
    const std::string path = dir.file("a.lease");
    {
        std::ofstream out(path);
        out << "{\"pid\": 12"; // writer died mid-write
    }
    LeaseInfo stored;
    EXPECT_FALSE(Lease::read(path, stored));
}

// ---------------------------------------------------------------
// FaultInjector parsing
// ---------------------------------------------------------------

TEST(FaultInjector, ParsesEveryDocumentedSpec)
{
    EXPECT_FALSE(FaultInjector::parse("").armed());
    EXPECT_TRUE(FaultInjector::parse("crash-before-commit")
                    .is("crash-before-commit"));
    EXPECT_TRUE(FaultInjector::parse("crash-after-commit")
                    .is("crash-after-commit"));
    EXPECT_TRUE(
        FaultInjector::parse("torn-marker").is("torn-marker"));
    EXPECT_TRUE(FaultInjector::parse("stale-heartbeat")
                    .is("stale-heartbeat"));
    const FaultInjector slow = FaultInjector::parse("slow-worker=75");
    EXPECT_TRUE(slow.is("slow-worker"));
    EXPECT_EQ(slow.param(), 75);
    const FaultInjector at = FaultInjector::parse("crash-at-point=2");
    EXPECT_TRUE(at.is("crash-at-point"));
    EXPECT_EQ(at.param(), 2);
}

TEST(FaultInjector, RejectsMalformedSpecsListingValidOnes)
{
    const auto expectThrows = [](const std::string &spec) {
        try {
            FaultInjector::parse(spec);
            FAIL() << spec << " should have thrown";
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find("torn-marker"),
                      std::string::npos)
                << "error should list the valid specs: "
                << error.what();
        }
    };
    expectThrows("rm-rf");                  // unknown kind
    expectThrows("crash-before-commit=3");  // takes no parameter
    expectThrows("slow-worker");            // needs a parameter
    expectThrows("slow-worker=fast");       // non-numeric
    expectThrows("crash-at-point=-1");      // negative
}

TEST(FaultInjector, DisarmedInjectorNeverFires)
{
    const FaultInjector none;
    EXPECT_FALSE(none.armed());
    none.fire("crash-before-commit"); // must not exit the test run
    none.fireAtPoint(0);
    none.maybeSleep();
    // An armed injector only fires its own kind.
    FaultInjector::parse("crash-after-commit")
        .fire("crash-before-commit");
    FaultInjector::parse("crash-at-point=5").fireAtPoint(4);
}

// ---------------------------------------------------------------
// Protocol round trips
// ---------------------------------------------------------------

TEST(ServeProtocol, ShardDescriptorRoundTrips)
{
    ShardDescriptor desc;
    desc.id = shardId(7);
    EXPECT_EQ(desc.id, "shard-0007");
    desc.indices = {3, 1, 4};
    desc.attempt = 2;
    ShardDescriptor back;
    ASSERT_TRUE(ShardDescriptor::fromJson(desc.toJson(), back));
    EXPECT_EQ(back.id, desc.id);
    EXPECT_EQ(back.indices, desc.indices);
    EXPECT_EQ(back.attempt, desc.attempt);

    ShardDescriptor bad;
    EXPECT_FALSE(ShardDescriptor::fromJson(parse("{}"), bad));
    EXPECT_FALSE(ShardDescriptor::fromJson(
        parse(R"({"id": "x", "indices": ["seven"]})"), bad));
}

TEST(ServeProtocol, ShardMarkerRoundTrips)
{
    ShardMarker marker;
    marker.id = shardId(0);
    marker.owner = "w1";
    marker.partial = true;
    marker.failed.push_back({5, "boom"});

    ShardMarker back;
    ASSERT_TRUE(ShardMarker::fromJson(marker.toJson(), back));
    EXPECT_EQ(back.id, marker.id);
    EXPECT_EQ(back.owner, "w1");
    EXPECT_TRUE(back.partial);
    ASSERT_EQ(back.failed.size(), 1u);
    EXPECT_EQ(back.failed[0].index, 5u);
    EXPECT_EQ(back.failed[0].error, "boom");

    ShardMarker bad;
    EXPECT_FALSE(ShardMarker::fromJson(parse("{}"), bad));
    EXPECT_FALSE(ShardMarker::fromJson(
        parse(R"({"id": "x", "owner": "w", "partial": false,
                  "failed": [{"index": 1}]})"),
        bad));
    EXPECT_FALSE(ShardMarker::fromJson(
        parse(R"({"id": "x", "partial": false, "failed": []})"),
        bad));
}

// ---------------------------------------------------------------
// Coordinator + worker integration (in-process)
// ---------------------------------------------------------------

CoordinatorOptions
coordinatorOptions(const ScratchDir &dir)
{
    CoordinatorOptions options;
    options.outPath = dir.file("out.json");
    options.dir = dir.file("serve");
    options.pollMs = 10;
    options.quiet = true;
    return options;
}

WorkerOptions
workerOptions(const CoordinatorOptions &coordinator)
{
    WorkerOptions options;
    options.dir = coordinator.dir;
    options.pollMs = 10;
    options.backoffMaxMs = 50;
    options.maxIdleSeconds = 60;
    options.quiet = true;
    return options;
}

/** Coordinator and workers each open their own handle on
 *  DIR/hoard, as `qcarch serve` and `qcarch work` processes do. */
CoordinatorReport
serveWithStore(const SweepSpec &spec, CoordinatorOptions options)
{
    HoardStore store(ServeDir(options.dir).hoard());
    options.store = &store;
    return runCoordinator(spec, options);
}

WorkerReport
workWithStore(WorkerOptions options)
{
    HoardStore store(ServeDir(options.dir).hoard());
    options.store = &store;
    return runWorker(options);
}

TEST(Serve, MergedDocumentIsByteIdenticalToSingleShot)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json golden = runSweep(spec).doc;

    ScratchDir dir("qc_serve_identical");
    CoordinatorOptions options = coordinatorOptions(dir);
    options.workersExpected = 2;
    options.shardPoints = 1; // 4 shards: both workers get some

    std::thread w1([&] { workWithStore(workerOptions(options)); });
    std::thread w2([&] { workWithStore(workerOptions(options)); });
    const CoordinatorReport report = serveWithStore(spec, options);
    w1.join();
    w2.join();

    EXPECT_EQ(report.exitCode, 0);
    EXPECT_EQ(report.executed, 4u);
    EXPECT_EQ(report.recovered, 0u);
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_EQ(golden.dump(2) + "\n", readAll(options.outPath));
    // Every point went through the store; markers are consumed.
    EXPECT_EQ(HoardStore(ServeDir(options.dir).hoard()).list().size(),
              4u);
    EXPECT_TRUE(fs::is_empty(ServeDir(options.dir).markerDir()));
}

TEST(Serve, WorkerDrainCommitsAPartialMarker)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json golden = runSweep(spec).doc;

    ScratchDir dir("qc_serve_partial");
    CoordinatorOptions options = coordinatorOptions(dir);
    options.shardPoints = 4; // one shard holds the whole sweep

    // The first worker is told to stop mid-shard: it must commit a
    // partial marker and exit with the interrupted code; the
    // coordinator re-queues whatever the store lacks for the
    // second worker.
    CoordinatorReport report;
    std::thread coordinator(
        [&] { report = serveWithStore(spec, options); });

    std::atomic<bool> stopFirst{false};
    WorkerOptions first = workerOptions(options);
    first.fault = FaultInjector::parse("slow-worker=20");
    first.stopRequested = [&] { return stopFirst.load(); };
    std::thread trigger([&] {
        // Flip the stop flag while the worker is inside an early
        // point of the 4-point shard.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        stopFirst.store(true);
    });
    const WorkerReport firstReport = workWithStore(first);
    trigger.join();
    EXPECT_EQ(firstReport.exitCode, kInterruptedExit);
    EXPECT_TRUE(firstReport.interrupted);
    EXPECT_LT(firstReport.points, 4u);

    // A second worker finishes whatever the drain left behind.
    std::thread w2([&] { workWithStore(workerOptions(options)); });
    coordinator.join();
    w2.join();

    EXPECT_EQ(report.exitCode, 0);
    EXPECT_EQ(report.duplicates, 0u);
    EXPECT_EQ(golden.dump(2) + "\n", readAll(options.outPath));
    if (firstReport.points > 0) {
        const std::string log = readAll(options.dir + "/log");
        EXPECT_NE(log.find("partial marker"), std::string::npos);
    }
}

TEST(Serve, ExpiredLeaseIsReclaimedExactlyOnceAndNotReExecuted)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json golden = runSweep(spec).doc;

    ScratchDir dir("qc_serve_reclaim");
    CoordinatorOptions options = coordinatorOptions(dir);
    options.shardPoints = 1;
    options.leaseSeconds = 0.1;

    // Squat on shard-0000 with a never-renewed lease held by this
    // (alive) process: the coordinator must take the expired-lease
    // path, exactly once, and a real worker then computes it.
    std::thread squatter([&] {
        const ServeDir serveDir(options.dir);
        const std::string leasePath = serveDir.lease("shard-0000");
        while (!fs::exists(serveDir.queueEntry("shard-0000")))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        LeaseInfo squat;
        squat.pid = static_cast<int>(::getpid());
        squat.nonce = Lease::makeNonce();
        squat.ttlSeconds = options.leaseSeconds;
        Lease::tryAcquire(leasePath, squat);
    });

    std::thread worker([&] { workWithStore(workerOptions(options)); });
    const CoordinatorReport report = serveWithStore(spec, options);
    squatter.join();
    worker.join();

    EXPECT_EQ(report.exitCode, 0);
    EXPECT_EQ(report.reclaimedExpired, 1u);
    EXPECT_EQ(report.duplicates, 0u);
    EXPECT_EQ(golden.dump(2) + "\n", readAll(options.outPath));

    const std::string log = readAll(options.dir + "/log");
    const std::string needle = "reclaimed expired lease";
    std::size_t count = 0;
    for (std::size_t at = log.find(needle);
         at != std::string::npos; at = log.find(needle, at + 1))
        ++count;
    EXPECT_EQ(count, 1u);
}

TEST(Serve, ForgedMarkersAreRejectedNotMerged)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json golden = runSweep(spec).doc;

    ScratchDir dir("qc_serve_forged");
    CoordinatorOptions options = coordinatorOptions(dir);
    options.shardPoints = 1;

    // A marker whose owner never held the shard's lease claims a
    // failure for point 0: it must not reach the document.
    std::thread forger([&] {
        const ServeDir serveDir(options.dir);
        while (!fs::exists(serveDir.manifest()))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        ShardMarker forged;
        forged.id = "shard-0000";
        forged.owner = "forger";
        forged.failed.push_back({0, "forged failure"});
        writeFileDurable(serveDir.marker("shard-0000", "forger"),
                         forged.toJson().dump(2) + "\n");
    });

    std::thread worker([&] { workWithStore(workerOptions(options)); });
    const CoordinatorReport report = serveWithStore(spec, options);
    forger.join();
    worker.join();

    EXPECT_EQ(report.exitCode, 0);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_GE(report.rejected, 1u);
    EXPECT_EQ(golden.dump(2) + "\n", readAll(options.outPath));
    const std::string log = readAll(options.dir + "/log");
    EXPECT_NE(log.find("rejected stale marker"), std::string::npos);
}

TEST(Serve, FailedPointsRideInTheMarkerNotTheStore)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "name": "serve_failures",
      "runner": "mc-prep",
      "base": {"trials": 2000, "seed": 3},
      "axes": [{"field": "strategy",
                "values": ["basic", "bogus", "verify_only"]}]
    })"));
    const Json golden = runSweep(spec).doc;

    ScratchDir dir("qc_serve_failed");
    CoordinatorOptions options = coordinatorOptions(dir);
    std::thread worker([&] { workWithStore(workerOptions(options)); });
    const CoordinatorReport report = serveWithStore(spec, options);
    worker.join();

    EXPECT_EQ(report.exitCode, 0);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(golden.dump(2) + "\n", readAll(options.outPath));
    EXPECT_EQ(HoardStore(ServeDir(options.dir).hoard()).list().size(),
              2u);
}

TEST(Serve, RestartRecoversPublishedPointsFromTheStore)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json golden = runSweep(spec).doc;

    ScratchDir dir("qc_serve_restart");
    CoordinatorOptions options = coordinatorOptions(dir);
    options.shardPoints = 1;

    // A crashed earlier generation's wreckage: two points published
    // to DIR/hoard, plus a leftover marker and queue entry.
    {
        HoardStore store(ServeDir(options.dir).hoard());
        std::size_t done = 0;
        SweepOptions halted;
        halted.threads = 1;
        halted.hoard = &store;
        halted.progress = [&](const SweepProgress &) { ++done; };
        halted.stopRequested = [&] { return done >= 2; };
        ASSERT_EQ(runSweep(spec, halted).interrupted, 2u);
        const ServeDir serveDir(options.dir);
        fs::create_directories(serveDir.markerDir());
        fs::create_directories(serveDir.queueDir());
        ShardMarker leftover;
        leftover.id = "shard-0009";
        leftover.owner = "gone";
        writeFileDurable(serveDir.marker("shard-0009", "gone"),
                         leftover.toJson().dump(2) + "\n");
        writeFileDurable(serveDir.queueEntry("shard-0009"), "{}\n");
    }

    // The restarted coordinator fetches the two stored points and
    // only serves the rest.
    std::thread worker([&] { workWithStore(workerOptions(options)); });
    const CoordinatorReport report = serveWithStore(spec, options);
    worker.join();

    EXPECT_EQ(report.exitCode, 0);
    EXPECT_EQ(report.recovered, 2u);
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_EQ(golden.dump(2) + "\n", readAll(options.outPath));
    const std::string log = readAll(options.dir + "/log");
    EXPECT_NE(log.find("recovered 2 point(s) from the store, "
                       "discarded 1 leftover marker(s)"),
              std::string::npos);
}

TEST(Serve, CoordinatorStopDrainsWithADoneMarkerAndNoDocument)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    ScratchDir dir("qc_serve_stop");
    CoordinatorOptions options = coordinatorOptions(dir);
    options.stopRequested = [] { return true; }; // immediate stop

    const CoordinatorReport report = serveWithStore(spec, options);
    EXPECT_TRUE(report.interrupted);
    EXPECT_EQ(report.exitCode, kInterruptedExit);
    EXPECT_EQ(readAll(options.dir + "/done"), "interrupted\n");
    // No partial document: the store is the only record.
    EXPECT_FALSE(fs::exists(options.outPath));
}

/** A store whose every publish fails, like a full disk. */
class FullDiskStore : public ResultCache
{
  public:
    bool fetch(const std::string &, const Json &, Json &) override
    {
        return false;
    }
    bool store(const std::string &, const Json &,
               const Json &) override
    {
        throw std::runtime_error("No space left on device");
    }
};

TEST(Serve, WorkerFailedPublishIsAnErrorExit)
{
    // A worker that cannot persist a point must not commit a
    // marker for it: the error escapes runWorker (exit 1 in
    // `qcarch work`) and the shard's lease is reclaimed later.
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    ScratchDir dir("qc_serve_fulldisk");
    CoordinatorOptions options = coordinatorOptions(dir);
    std::atomic<bool> stop{false};
    options.stopRequested = [&] { return stop.load(); };
    std::thread coordinator([&] { serveWithStore(spec, options); });

    FullDiskStore store;
    WorkerOptions worker = workerOptions(options);
    worker.store = &store;
    EXPECT_THROW(runWorker(worker), std::runtime_error);
    stop.store(true);
    coordinator.join();
    EXPECT_TRUE(fs::is_empty(ServeDir(options.dir).markerDir()));
}

TEST(Serve, WorkerExitsOnDoneMarker)
{
    ScratchDir dir("qc_serve_done");
    const ServeDir serveDir(dir.file("serve"));
    fs::create_directories(serveDir.root);
    writeFileDurable(serveDir.doneMarker(), "complete\n");

    WorkerOptions options;
    options.dir = serveDir.root;
    options.pollMs = 5;
    options.quiet = true;
    const WorkerReport report = workWithStore(options);
    EXPECT_EQ(report.exitCode, 0);
    EXPECT_EQ(report.shards, 0u);
}

TEST(Serve, IdleWorkerLeavesAfterMaxIdle)
{
    ScratchDir dir("qc_serve_idle");
    // No manifest ever appears; the worker must still terminate…
    // via its stop hook (maxIdle only counts once it has joined).
    std::atomic<bool> stop{false};
    WorkerOptions options;
    options.dir = dir.file("serve");
    options.pollMs = 5;
    options.quiet = true;
    options.stopRequested = [&] { return stop.load(); };
    std::thread flip([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        stop.store(true);
    });
    const WorkerReport report = workWithStore(options);
    flip.join();
    EXPECT_EQ(report.exitCode, kInterruptedExit);

    // With a manifest-bearing but empty queue, maxIdleSeconds
    // bounds the wait: build a done-less directory whose queue is
    // empty and check the worker leaves with exit 0.
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const ServeDir serveDir(dir.file("serve2"));
    fs::create_directories(serveDir.queueDir());
    fs::create_directories(serveDir.leaseDir());
    fs::create_directories(serveDir.markerDir());
    Json manifest = Json::object();
    manifest.set("generation", 1);
    manifest.set("lease_seconds", 1.0);
    manifest.set("runner", spec.runner);
    manifest.set("spec", spec.toJson());
    writeFileDurable(serveDir.manifest(),
                     manifest.dump(2) + "\n");
    WorkerOptions bounded;
    bounded.dir = serveDir.root;
    bounded.pollMs = 5;
    bounded.backoffMaxMs = 20;
    bounded.maxIdleSeconds = 0.1;
    bounded.quiet = true;
    const WorkerReport idle = workWithStore(bounded);
    EXPECT_EQ(idle.exitCode, 0);
    EXPECT_EQ(idle.shards, 0u);
}

} // namespace
} // namespace qc
