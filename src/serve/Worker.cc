#include "serve/Worker.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/DurableFile.hh"
#include "common/Mutex.hh"
#include "serve/Coordinator.hh" // kInterruptedExit
#include "serve/Lease.hh"
#include "serve/Protocol.hh"
#include "sweep/SweepPlan.hh"

namespace qc {

namespace {

namespace fs = std::filesystem;

void
note(const WorkerOptions &options, const char *format, ...)
    __attribute__((format(printf, 2, 3)));

void
note(const WorkerOptions &options, const char *format, ...)
{
    if (options.quiet)
        return;
    char line[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(line, sizeof line, format, args);
    va_end(args);
    std::fprintf(stderr, "[work %d] %s\n",
                 static_cast<int>(::getpid()), line);
    std::fflush(stderr);
}

/** Sorted queue descriptors currently on disk (torn ones
 *  skipped). */
std::vector<ShardDescriptor>
listQueue(const ServeDir &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(dir.queueDir(), ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 5
            && name.compare(name.size() - 5, 5, ".json") == 0)
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    std::vector<ShardDescriptor> out;
    for (const std::string &file : files) {
        try {
            ShardDescriptor desc;
            if (ShardDescriptor::fromJson(Json::loadFile(file),
                                          desc))
                out.push_back(std::move(desc));
        } catch (const std::exception &) {
            // Vanished between listing and load, or torn: skip.
        }
    }
    return out;
}

/**
 * Renews the lease every TTL/3 from a side thread; lost() flips
 * when a renewal fails (the lease was reclaimed or replaced). The
 * stop/lost handshake between the compute thread and the heartbeat
 * thread lives behind an annotated mutex, so clang's thread-safety
 * analysis proves every access is serialized.
 */
class Heartbeat
{
  public:
    Heartbeat(std::string path, LeaseInfo mine, bool suppressed)
        : path_(std::move(path)), mine_(std::move(mine))
    {
        if (suppressed)
            return; // stale-heartbeat fault: never renew
        thread_ = std::thread([this] { loop(); });
    }

    ~Heartbeat()
    {
        {
            MutexLock lock(mutex_);
            stop_ = true;
        }
        if (thread_.joinable())
            thread_.join();
    }

    bool lost() const QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return lost_;
    }

  private:
    bool stopRequested() const QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return stop_;
    }

    void markLost() QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        lost_ = true;
    }

    void loop()
    {
        const auto interval = std::chrono::milliseconds(
            std::max<long>(50,
                           static_cast<long>(mine_.ttlSeconds
                                             * 1000.0 / 3.0)));
        auto next = std::chrono::steady_clock::now() + interval;
        while (!stopRequested()) {
            if (std::chrono::steady_clock::now() >= next) {
                if (!Lease::renew(path_, mine_)) {
                    markLost();
                    return;
                }
                next = std::chrono::steady_clock::now() + interval;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    const std::string path_;
    const LeaseInfo mine_;
    std::thread thread_;
    mutable Mutex mutex_;
    bool stop_ QC_GUARDED_BY(mutex_) = false;
    bool lost_ QC_GUARDED_BY(mutex_) = false;
};

class Worker
{
  public:
    explicit Worker(const WorkerOptions &options)
        : options_(options), dir_(options.dir),
          nonce_(Lease::makeNonce()),
          jitter_(std::hash<std::string>{}(nonce_))
    {
    }

    WorkerReport run()
    {
        waitForManifest();
        if (report_.exitCode != 0 || done_)
            return report_;

        const Json manifest = Json::loadFile(dir_.manifest());
        ttlSeconds_ = manifest.getDouble("lease_seconds", 30.0);
        const Json *specJson = manifest.find("spec");
        if (!specJson) {
            throw std::invalid_argument(
                "serve manifest " + dir_.manifest()
                + " carries no spec");
        }
        const SweepSpec spec = SweepSpec::fromJson(*specJson);
        plan_ = SweepPlan::expand(spec);
        runnerKey_ = spec.runner;
        runner_ = &SweepRunnerRegistry::instance().get(spec.runner);
        note(options_, "joined %s: sweep \"%s\", %zu point(s), "
                       "lease %.1fs",
             dir_.root.c_str(), spec.name.c_str(),
             plan_.points.size(), ttlSeconds_);

        int backoffMs = options_.pollMs;
        auto lastProgress = std::chrono::steady_clock::now();
        while (true) {
            if (stopRequested()) {
                report_.interrupted = true;
                report_.exitCode = kInterruptedExit;
                return report_;
            }
            if (doneMarkerPresent())
                return report_;

            bool didWork = false;
            for (const ShardDescriptor &desc : listQueue(dir_)) {
                if (tryShard(desc)) {
                    didWork = true;
                    break; // rescan: the queue just changed
                }
                if (stopRequested() || report_.exitCode != 0)
                    break;
            }
            if (report_.exitCode != 0) // partial commit happened
                return report_;
            if (didWork) {
                backoffMs = options_.pollMs;
                lastProgress = std::chrono::steady_clock::now();
                continue;
            }

            const double idle =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - lastProgress)
                    .count();
            if (options_.maxIdleSeconds > 0
                && idle > options_.maxIdleSeconds) {
                note(options_,
                     "idle for %.1fs with nothing to acquire; "
                     "leaving",
                     idle);
                return report_;
            }
            // Exponential backoff with jitter: sleep a uniform
            // draw from [backoff/2, backoff], then double the
            // ceiling — idle fleets spread out instead of polling
            // in lockstep.
            std::uniform_int_distribution<int> draw(backoffMs / 2,
                                                    backoffMs);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(draw(jitter_)));
            backoffMs =
                std::min(backoffMs * 2, options_.backoffMaxMs);
        }
    }

  private:
    bool stopRequested() const
    {
        return options_.stopRequested && options_.stopRequested();
    }

    bool doneMarkerPresent()
    {
        std::error_code ec;
        if (!fs::exists(dir_.doneMarker(), ec))
            return false;
        note(options_, "done marker present; leaving");
        done_ = true;
        return true;
    }

    void waitForManifest()
    {
        bool announced = false;
        while (true) {
            std::error_code ec;
            if (fs::exists(dir_.manifest(), ec))
                return;
            if (doneMarkerPresent())
                return;
            if (stopRequested()) {
                report_.interrupted = true;
                report_.exitCode = kInterruptedExit;
                return;
            }
            if (!announced) {
                note(options_, "waiting for a manifest in %s",
                     dir_.root.c_str());
                announced = true;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options_.pollMs));
        }
    }

    /** Returns true iff the shard was acquired and committed. */
    bool tryShard(const ShardDescriptor &desc)
    {
        const std::string leasePath = dir_.lease(desc.id);
        LeaseInfo mine;
        mine.pid = static_cast<int>(::getpid());
        mine.nonce = nonce_;
        mine.ttlSeconds = ttlSeconds_;
        if (!Lease::tryAcquire(leasePath, mine))
            return false;
        note(options_, "acquired %s (%zu point(s), attempt %d)",
             desc.id.c_str(), desc.indices.size(), desc.attempt);

        // The stale-heartbeat fault fires once per process: hold
        // the lease without renewing and dawdle past the TTL, so
        // the coordinator reclaims a lease whose owner is alive.
        bool suppressHeartbeat = false;
        if (options_.fault.is("stale-heartbeat") && !staleDone_) {
            staleDone_ = true;
            suppressHeartbeat = true;
            const auto dawdle = std::chrono::milliseconds(
                static_cast<long>(ttlSeconds_ * 2200.0));
            note(options_,
                 "stale-heartbeat fault: holding %s silently for "
                 "%.1fs",
                 desc.id.c_str(), ttlSeconds_ * 2.2);
            std::this_thread::sleep_for(dawdle);
        }

        ShardMarker marker;
        marker.id = desc.id;
        marker.owner = nonce_;
        std::size_t finished = 0;
        bool lost = false;
        {
            Heartbeat heartbeat(leasePath, mine, suppressHeartbeat);
            for (std::size_t index : desc.indices) {
                if (heartbeat.lost()) {
                    lost = true;
                    break;
                }
                if (stopRequested()) {
                    marker.partial = true;
                    break;
                }
                options_.fault.maybeSleep();
                finishPoint(index, marker);
                ++finished;
            }
            lost = lost || heartbeat.lost();
        }
        if (lost) {
            ++report_.abandoned;
            note(options_,
                 "lost the lease on %s mid-compute; abandoning it "
                 "(%zu finished point(s) stay in the store)",
                 desc.id.c_str(), finished);
            return false;
        }
        if (marker.partial && finished == 0) {
            // Drained before finishing anything: just put the
            // shard back.
            Lease::release(leasePath, nonce_);
            report_.interrupted = true;
            report_.exitCode = kInterruptedExit;
            return false;
        }
        return commit(desc, leasePath, marker, finished);
    }

    /**
     * Fetch one point from the store, or compute and publish it —
     * the single-shot engine's read-through/write-behind, so a
     * point any earlier owner published is never computed again.
     * Error results are never stored; they ride in the marker. A
     * publish that throws propagates: a worker that cannot persist
     * its points must not commit a marker for them.
     */
    void finishPoint(std::size_t index, ShardMarker &marker)
    {
        const Json &config = plan_.points[index].config;
        Json result;
        if (options_.store->fetch(runnerKey_, config, result))
            return;
        try {
            result = runner_->runPoint(config, context_);
        } catch (const std::exception &error) {
            marker.failed.push_back({index, error.what()});
            return;
        }
        options_.store->store(runnerKey_, config, result);
    }

    bool commit(const ShardDescriptor &desc,
                const std::string &leasePath,
                const ShardMarker &marker, std::size_t finished)
    {
        // Re-verify ownership immediately before committing: if
        // the lease was reclaimed (and possibly re-acquired) while
        // we computed, our marker must not race the new owner's.
        LeaseInfo current;
        if (!Lease::read(leasePath, current)
            || current.nonce != nonce_) {
            ++report_.abandoned;
            note(options_,
                 "no longer own %s at commit time; abandoning it "
                 "(%zu finished point(s) stay in the store)",
                 desc.id.c_str(), finished);
            return false;
        }

        const std::string markerPath = dir_.marker(desc.id, nonce_);
        const std::string body = marker.toJson().dump(2) + "\n";
        const std::string tmpSuffix = ".tmp-" + nonce_;

        if (options_.fault.is("torn-marker")) {
            // Publish half the bytes, then die: the coordinator
            // must reject the torn file and re-queue via lease
            // reclamation.
            writeFileTorn(markerPath, body, body.size() / 2,
                          tmpSuffix);
            options_.fault.fire("torn-marker");
        }
        if (options_.fault.is("crash-before-commit")) {
            // Write + fsync the temp file but never rename it in:
            // the published name must not appear.
            writeFileDurable(markerPath + tmpSuffix, body,
                             ".partial");
            options_.fault.fire("crash-before-commit");
        }

        writeFileDurable(markerPath, body, tmpSuffix);
        options_.fault.fire("crash-after-commit");
        // Deliberately NO lease release here: the lease doubles as
        // the commit fence. Until the coordinator has merged the
        // marker and removed (or rewritten) the queue entry, the
        // lease file keeps other workers from re-acquiring the
        // shard from the stale descriptor; the coordinator removes
        // the lease together with its queue bookkeeping.

        ++report_.shards;
        report_.points += finished;
        note(options_, "committed %s%s (%zu point(s))",
             desc.id.c_str(), marker.partial ? " [partial]" : "",
             finished);
        if (marker.partial) {
            report_.interrupted = true;
            report_.exitCode = kInterruptedExit;
        }
        return true;
    }

    WorkerOptions options_;
    ServeDir dir_;
    std::string nonce_;
    std::mt19937 jitter_;
    double ttlSeconds_ = 30.0;
    SweepPlan plan_;
    std::string runnerKey_;
    const SweepRunner *runner_ = nullptr;
    SweepContext context_;
    bool staleDone_ = false;
    bool done_ = false;
    WorkerReport report_;
};

} // namespace

WorkerReport
runWorker(const WorkerOptions &options)
{
    if (options.dir.empty())
        throw std::invalid_argument(
            "worker needs a --coordinator directory");
    if (!options.store)
        throw std::invalid_argument("worker needs a result store");
    Worker worker(options);
    return worker.run();
}

} // namespace qc
