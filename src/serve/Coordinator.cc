#include "serve/Coordinator.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/DurableFile.hh"
#include "serve/Lease.hh"
#include "serve/Protocol.hh"
#include "sweep/SweepPlan.hh"

namespace qc {

namespace {

namespace fs = std::filesystem;

/** Appends timestamped lines to DIR/log (flushed per line — the
 *  kill-matrix gate greps this file after kills) and mirrors them
 *  to stderr unless quiet. */
class ServeLog
{
  public:
    ServeLog(const std::string &path, bool quiet)
        // qclint: allow(raw-io): append-only human-readable log, not a commit artifact; losing a tail line on crash is acceptable
        : file_(std::fopen(path.c_str(), "a")), quiet_(quiet),
          start_(std::chrono::steady_clock::now())
    {
        if (!file_)
            throw std::runtime_error("cannot open log " + path);
    }

    ~ServeLog()
    {
        if (file_)
            std::fclose(file_);
    }

    void operator()(const char *format, ...)
        __attribute__((format(printf, 2, 3)))
    {
        char line[1024];
        va_list args;
        va_start(args, format);
        std::vsnprintf(line, sizeof line, format, args);
        va_end(args);
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::fprintf(file_, "[serve +%.3fs] %s\n", elapsed, line);
        std::fflush(file_);
        if (!quiet_) {
            std::fprintf(stderr, "[serve] %s\n", line);
            std::fflush(stderr);
        }
    }

  private:
    std::FILE *file_;
    bool quiet_;
    std::chrono::steady_clock::time_point start_;
};

/** Sorted *.json entries of a directory (torn temp files carry a
 *  .tmp infix and are excluded by construction of their names). */
std::vector<std::string>
listJsonFiles(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 5
            && name.compare(name.size() - 5, 5, ".json") == 0)
            out.push_back(entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Refuse an --out that a durable write-then-rename would clobber
 *  (a directory, a device): fail before any work, not after it. */
void
checkOutTarget(const std::string &path)
{
    std::error_code ec;
    const fs::file_status status = fs::symlink_status(path, ec);
    if (!ec && fs::exists(status) && !fs::is_regular_file(status)) {
        throw std::runtime_error(
            "output path " + path
            + " exists and is not a regular file");
    }
}

class Coordinator
{
  public:
    Coordinator(const SweepSpec &spec,
                const CoordinatorOptions &options)
        : options_(options), dir_(options.dir), assembler_(spec),
          log_((prepareRoot(), dir_.logFile()), options.quiet)
    {
    }

    CoordinatorReport run()
    {
        checkOutTarget(options_.outPath);
        prepareDirs();
        recoverFromStore();
        publishQueue();
        publishManifest();
        loop();
        report_.failed = assembler_.failedPoints();
        return report_;
    }

  private:
    /** The log lives inside the root, so the root must exist
     *  before the log member constructs. */
    void prepareRoot() const
    {
        fs::create_directories(dir_.root);
    }

    void prepareDirs()
    {
        fs::create_directories(dir_.queueDir());
        fs::create_directories(dir_.leaseDir());
        fs::create_directories(dir_.markerDir());
        // A leftover done marker would make fresh workers exit
        // immediately.
        std::remove(dir_.doneMarker().c_str());
    }

    /**
     * The restart path, and a no-op on a fresh directory: every
     * point an earlier generation's workers published is in the
     * store, so one fetch pass over the pending points recovers
     * them all. Leftover markers, queue entries and leases belong
     * to that generation: the queue is rebuilt from what is still
     * pending, and an orphaned lease would only block a shard no
     * live worker owns.
     */
    void recoverFromStore()
    {
        for (std::size_t index : assembler_.pending()) {
            if (fetchInto(index))
                ++report_.recovered;
        }
        const std::vector<std::string> markers =
            listJsonFiles(dir_.markerDir());
        for (const std::string &file : markers)
            std::remove(file.c_str());
        for (const std::string &file :
             listJsonFiles(dir_.queueDir()))
            std::remove(file.c_str());
        std::error_code ec;
        for (const auto &entry :
             fs::directory_iterator(dir_.leaseDir(), ec))
            std::remove(entry.path().string().c_str());
        log_("recovered %zu point(s) from the store, discarded %zu "
             "leftover marker(s)",
             report_.recovered, markers.size());
    }

    /** Merge the stored result of one canonical index; false on a
     *  miss (never published, or quarantined as damaged). */
    bool fetchInto(std::size_t index)
    {
        Json result;
        if (!options_.store->fetch(
                assembler_.spec().runner,
                assembler_.plan().points[index].config, result))
            return false;
        return assembler_.setResult(index, std::move(result),
                                    /*failed=*/false);
    }

    void publishQueue()
    {
        const std::vector<std::size_t> pending =
            assembler_.pending();
        std::size_t shardPoints = options_.shardPoints;
        if (shardPoints == 0) {
            const std::size_t workers = std::max(
                1, options_.workersExpected);
            shardPoints =
                std::max<std::size_t>(1,
                                      pending.size() / (4 * workers));
        }
        std::size_t ordinal = 0;
        for (std::size_t begin = 0; begin < pending.size();
             begin += shardPoints) {
            ShardDescriptor desc;
            desc.id = shardId(ordinal++);
            const std::size_t end =
                std::min(begin + shardPoints, pending.size());
            desc.indices.assign(pending.begin() + begin,
                                pending.begin() + end);
            writeFileDurable(dir_.queueEntry(desc.id),
                             desc.toJson().dump(2) + "\n");
            shards_[desc.id] = desc;
        }
        log_("queued %zu shard(s) of <= %zu point(s) "
             "(%zu pending of %zu unique)",
             shards_.size(), shardPoints, pending.size(),
             assembler_.plan().unique.size());
    }

    void publishManifest()
    {
        std::int64_t generation = 1;
        std::error_code ec;
        if (fs::exists(dir_.manifest(), ec)) {
            try {
                generation = Json::loadFile(dir_.manifest())
                                 .getInt("generation", 0)
                             + 1;
            } catch (const std::exception &) {
                // Torn manifest from a killed coordinator: the
                // durable rewrite below replaces it.
            }
        }
        Json manifest = Json::object();
        manifest.set("generation", generation);
        manifest.set("lease_seconds", options_.leaseSeconds);
        manifest.set("runner", assembler_.spec().runner);
        manifest.set("sweep", assembler_.spec().name);
        manifest.set("spec", assembler_.spec().toJson());
        writeFileDurable(dir_.manifest(),
                         manifest.dump(2) + "\n");
        log_("manifest published (generation %lld, lease %.1fs)",
             static_cast<long long>(generation),
             options_.leaseSeconds);
    }

    void loop()
    {
        while (true) {
            if (options_.stopRequested && options_.stopRequested()) {
                writeFileDurable(dir_.doneMarker(),
                                 "interrupted\n");
                log_("stop requested: %zu unique point(s) still "
                     "pending; finished points are in the store",
                     assembler_.pending().size());
                report_.interrupted = true;
                report_.exitCode = kInterruptedExit;
                return;
            }

            for (const std::string &file :
                 listJsonFiles(dir_.markerDir()))
                mergeMarker(file);

            reclaimStaleLeases();

            // The CI coordinator-crash leg: die after the K-th
            // merged point. Every merged point is in the store, so
            // the restart must recover exactly these.
            if (options_.fault.is("crash-at-point")
                && report_.executed
                       >= static_cast<std::size_t>(
                           options_.fault.param()))
                options_.fault.fire("crash-at-point");

            if (assembler_.complete()) {
                writeFileDurable(options_.outPath,
                                 assembler_.document().dump(2)
                                     + "\n");
                writeFileDurable(dir_.doneMarker(), "complete\n");
                log_("sweep complete: %zu executed, %zu recovered, "
                     "%zu duplicate marker(s), %zu rejected "
                     "marker(s), %zu reclaim(s)",
                     report_.executed, report_.recovered,
                     report_.duplicates, report_.rejected,
                     report_.reclaimedExpired
                         + report_.reclaimedDead);
                return;
            }

            std::this_thread::sleep_for(
                std::chrono::milliseconds(options_.pollMs));
        }
    }

    void reject(const std::string &file)
    {
        std::remove(file.c_str());
        ++report_.rejected;
    }

    /** Check one committed marker in, then delete it: the store,
     *  not the marker, is the durable record of the points. */
    void mergeMarker(const std::string &file)
    {
        ShardMarker marker;
        bool parsed = false;
        try {
            parsed = ShardMarker::fromJson(Json::loadFile(file),
                                           marker);
        } catch (const std::exception &) {
            log_("rejected torn marker %s (unparsable; deleted)",
                 file.c_str());
            reject(file);
            return;
        }
        if (!parsed) {
            log_("rejected malformed marker %s (deleted)",
                 file.c_str());
            reject(file);
            return;
        }
        auto it = shards_.find(marker.id);
        if (it == shards_.end() && committed_.count(marker.id)) {
            log_("duplicate marker %s (shard already merged; "
                 "idempotent)",
                 file.c_str());
            std::remove(file.c_str());
            ++report_.duplicates;
            return;
        }
        // The lease is the commit fence: a marker counts only while
        // its owner holds a pending shard of this generation. One
        // whose lease was reclaimed, or that a worker committed for
        // an earlier generation's queue, is stale — whatever it
        // finished is in the store, where the shard's current owner
        // fetches it.
        LeaseInfo holder;
        if (it == shards_.end()
            || !Lease::read(dir_.lease(marker.id), holder)
            || holder.nonce != marker.owner) {
            log_("rejected stale marker %s (owner %s holds no lease "
                 "on a pending shard; deleted)",
                 file.c_str(), marker.owner.c_str());
            reject(file);
            return;
        }
        ShardDescriptor &desc = it->second;
        std::map<std::size_t, std::string> failed;
        for (const FailedPoint &point : marker.failed) {
            if (std::find(desc.indices.begin(), desc.indices.end(),
                          point.index)
                == desc.indices.end()) {
                log_("rejected conflicting marker %s (point %zu is "
                     "not in %s; deleted)",
                     file.c_str(), point.index, desc.id.c_str());
                reject(file);
                return;
            }
            failed[point.index] = point.error;
        }

        std::vector<std::size_t> missing;
        for (std::size_t index : desc.indices) {
            const auto error = failed.find(index);
            if (error != failed.end()) {
                Json result = Json::object();
                result.set("error", error->second);
                assembler_.setResult(index, std::move(result),
                                     /*failed=*/true);
                ++report_.executed;
            } else if (fetchInto(index)) {
                ++report_.executed;
            } else {
                missing.push_back(index);
            }
        }
        std::remove(file.c_str());

        // The committing worker leaves its lease in place as a
        // commit fence; removing it is this function's job, and
        // only AFTER the queue entry reflects the marker — so no
        // worker can re-acquire the shard from a stale descriptor
        // and redo merged points.
        if (!missing.empty()) {
            desc.indices = std::move(missing);
            ++desc.attempt;
            writeFileDurable(dir_.queueEntry(desc.id),
                             desc.toJson().dump(2) + "\n");
            std::remove(dir_.lease(desc.id).c_str());
            log_("%s marker for %s: %zu point(s) missing from the "
                 "store, re-queued (attempt %d)",
                 marker.partial ? "partial" : "short",
                 desc.id.c_str(), desc.indices.size(),
                 desc.attempt);
            return;
        }
        std::remove(dir_.queueEntry(desc.id).c_str());
        std::remove(dir_.lease(desc.id).c_str());
        log_("shard %s committed (%zu point(s) by %s)",
             desc.id.c_str(), desc.indices.size(),
             marker.owner.c_str());
        committed_.insert(desc.id);
        shards_.erase(it);
    }

    void reclaimStaleLeases()
    {
        const std::int64_t now = nowEpochMs();
        // Iterate over a name snapshot: reclaiming mutates shards_.
        std::vector<std::string> ids;
        for (const auto &[id, desc] : shards_)
            ids.push_back(id);
        for (const std::string &id : ids)
            reclaimIfStale(id, now);
    }

    void reclaimIfStale(const std::string &id, std::int64_t now)
    {
        // A marker that landed after this iteration's merge scan
        // must be merged before any reclaim decision: reclaiming a
        // committed-but-unmerged shard would discard its marker as
        // stale (crash-after-commit leaves exactly this state:
        // marker on disk, owner dead, lease held).
        for (const std::string &file :
             listJsonFiles(dir_.markerDir())) {
            if (fs::path(file).filename().string().rfind(id + ".", 0)
                == 0)
                return;
        }
        const std::string leasePath = dir_.lease(id);
        LeaseInfo info;
        const bool readable = Lease::read(leasePath, info);
        if (!readable) {
            std::error_code ec;
            if (!fs::exists(leasePath, ec))
                return; // no lease: the shard is simply free
            // An unparsable lease means its writer died mid-write
            // (tryAcquire publishes in place); nobody owns it.
            reclaim(id, leasePath, "unreadable lease");
            return;
        }
        if (!info.ownerAlive()) {
            // Dead-PID fast path: no need to wait out the TTL.
            reclaim(id, leasePath,
                    ("dead owner pid "
                     + std::to_string(info.pid))
                        .c_str(),
                    /*expired=*/false);
        } else if (info.expired(now)) {
            reclaim(id, leasePath,
                    ("expired lease of pid "
                     + std::to_string(info.pid))
                        .c_str(),
                    /*expired=*/true);
        }
    }

    void reclaim(const std::string &id,
                 const std::string &leasePath, const char *reason,
                 bool expired = false)
    {
        auto it = shards_.find(id);
        if (it == shards_.end())
            return;
        // Drop merged indices first: a shard whose points landed
        // before its owner died must not re-execute any of them.
        ShardDescriptor &desc = it->second;
        std::vector<std::size_t> remaining;
        for (std::size_t index : desc.indices) {
            if (!assembler_.has(index))
                remaining.push_back(index);
        }
        const std::size_t dropped =
            desc.indices.size() - remaining.size();
        // Re-publish the queue entry BEFORE the steal: while the
        // lease file exists no worker can acquire the shard, so no
        // one can read a descriptor that is mid-rewrite.
        if (remaining.empty()) {
            std::remove(dir_.queueEntry(id).c_str());
        } else {
            desc.indices = std::move(remaining);
            ++desc.attempt;
            writeFileDurable(dir_.queueEntry(id),
                             desc.toJson().dump(2) + "\n");
        }
        if (!Lease::steal(leasePath,
                          dir_.leaseDir() + "/.reclaim-" + id)) {
            // The owner released it in this instant — it committed
            // after all; the marker scan will finish the shard.
            return;
        }
        if (expired)
            ++report_.reclaimedExpired;
        else
            ++report_.reclaimedDead;
        if (dropped > 0 && !desc.indices.empty()) {
            log_("reclaimed %s for %s: dropped %zu merged "
                 "point(s), re-queued %zu (attempt %d)",
                 reason, id.c_str(), dropped, desc.indices.size(),
                 desc.attempt);
        } else if (desc.indices.empty()) {
            log_("reclaimed %s for %s: shard already fully "
                 "merged, not re-queued",
                 reason, id.c_str());
            committed_.insert(id);
            shards_.erase(id);
        } else {
            log_("reclaimed %s for %s: re-queued %zu point(s) "
                 "(attempt %d)",
                 reason, id.c_str(), desc.indices.size(),
                 desc.attempt);
        }
    }

    CoordinatorOptions options_;
    ServeDir dir_;
    SweepAssembler assembler_;
    ServeLog log_;
    std::map<std::string, ShardDescriptor> shards_; ///< pending
    std::set<std::string> committed_; ///< this generation's, merged
    CoordinatorReport report_;
};

} // namespace

CoordinatorReport
runCoordinator(const SweepSpec &spec,
               const CoordinatorOptions &options)
{
    if (options.outPath.empty())
        throw std::invalid_argument("coordinator needs an --out path");
    if (options.dir.empty())
        throw std::invalid_argument(
            "coordinator needs a coordination directory");
    if (!options.store)
        throw std::invalid_argument("coordinator needs a result store");
    Coordinator coordinator(spec, options);
    return coordinator.run();
}

} // namespace qc
