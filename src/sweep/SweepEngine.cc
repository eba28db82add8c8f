#include "sweep/SweepEngine.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/Mutex.hh"
#include "common/ParallelFor.hh"
#include "sweep/SweepPlan.hh"

namespace qc {

namespace {

/** Pause between passes over the points other processes hold. */
constexpr std::chrono::milliseconds kRevisitBackoff{100};

/** How one unique point got its result. */
struct PointOutcome
{
    bool failed = false;      ///< the runner threw
    bool hoarded = false;     ///< fetched from the result store
    bool published = false;   ///< newly written to the store
    bool tookOver = false;    ///< its claim was taken over
    std::string publishError; ///< non-empty: the publish threw
};

/**
 * The engine's shared mutable state during the parallel phase:
 * result slots, store accounting and progress ticks, serialized
 * under one annotated mutex. Workers call commit(); the main
 * thread calls memoTick()/account() after parallelFor returns
 * (still through the lock — cheap, and it keeps the annotations
 * unconditional).
 *
 * Publish-before-tick ordering is part of the engine contract:
 * `qcarch sweep`'s crash-at-point fault relies on the K-th executed
 * point being in the store before its progress tick fires.
 */
class PointSink
{
  public:
    PointSink(SweepAssembler &assembler, const SweepOptions &options)
        : assembler_(&assembler), options_(options)
    {
    }

    /** Lands one unique point: slot write, store accounting,
     *  progress tick — atomically with respect to other commits. */
    void commit(std::size_t index, Json result,
                const PointOutcome &outcome) QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        assembler_->setResult(index, std::move(result),
                              outcome.failed);
        hoardHits_ += outcome.hoarded ? 1 : 0;
        hoardStored_ += outcome.published ? 1 : 0;
        takenOver_ += outcome.tookOver ? 1 : 0;
        if (!outcome.publishError.empty() && hoardFailed_++ == 0)
            hoardError_ = outcome.publishError;
        tick(index, /*cached=*/false, outcome.hoarded);
    }

    /** Set a unique point aside: another process holds it. */
    void defer(std::size_t task) QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        deferred_.push_back(task);
    }

    /** The points set aside since the last call, in plan order. */
    std::vector<std::size_t> takeDeferred() QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        std::vector<std::size_t> tasks;
        tasks.swap(deferred_);
        std::sort(tasks.begin(), tasks.end());
        return tasks;
    }

    /** Progress tick for a memo duplicate of a landed point. */
    void memoTick(std::size_t index) QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        tick(index, /*cached=*/true, /*hoarded=*/false);
    }

    /** Copy the store accounting into `report`. */
    void account(SweepReport &report) const QC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        report.hoardHits = hoardHits_;
        report.hoardStored = hoardStored_;
        report.hoardFailed = hoardFailed_;
        report.hoardError = hoardError_;
        report.claimsTakenOver = takenOver_;
    }

  private:
    void tick(std::size_t index, bool cached, bool hoarded)
        QC_REQUIRES(mutex_)
    {
        if (!options_.progress)
            return;
        SweepProgress progress;
        progress.done = ++done_;
        progress.total = assembler_->plan().points.size();
        progress.point = &assembler_->plan().points[index];
        progress.cached = cached;
        progress.hoarded = hoarded;
        options_.progress(progress);
    }

    mutable Mutex mutex_;
    SweepAssembler *const assembler_ QC_PT_GUARDED_BY(mutex_);
    const SweepOptions &options_;
    std::size_t done_ QC_GUARDED_BY(mutex_) = 0;
    std::size_t hoardHits_ QC_GUARDED_BY(mutex_) = 0;
    std::size_t hoardStored_ QC_GUARDED_BY(mutex_) = 0;
    std::size_t hoardFailed_ QC_GUARDED_BY(mutex_) = 0;
    std::string hoardError_ QC_GUARDED_BY(mutex_);
    std::size_t takenOver_ QC_GUARDED_BY(mutex_) = 0;
    std::vector<std::size_t> deferred_ QC_GUARDED_BY(mutex_);
};

} // namespace

SweepReport
runSweep(const SweepSpec &spec, const SweepOptions &options)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepAssembler assembler(spec);
    const SweepPlan &plan = assembler.plan();

    SweepReport report;
    report.points = plan.points.size();
    report.cacheMisses = plan.unique.size();
    report.cacheHits = plan.points.size() - plan.unique.size();

    SweepContext context;
    PointSink sink(assembler, options);
    ResultCache *const store = options.hoard;
    const auto compute = [&](const Json &config, Json &result,
                             PointOutcome &outcome) {
        try {
            result = assembler.runner().runPoint(config, context);
        } catch (const std::exception &e) {
            result = Json::object();
            result.set("error", e.what());
            outcome.failed = true;
        }
        // Write-behind, before the claim is released and before the
        // commit tick, so the crash-at-point fault (which fires
        // inside the tick) proves "ticked ⇒ stored". A publish that
        // throws costs only this point's crash durability, never
        // the point.
        if (store && !outcome.failed) {
            try {
                outcome.published =
                    store->store(spec.runner, config, result);
            } catch (const std::exception &e) {
                outcome.publishError = e.what();
            }
        }
    };
    const auto finish = [&](std::size_t task) {
        const std::size_t index = plan.unique[task];
        const Json &config = plan.points[index].config;
        PointOutcome outcome;
        Json result;
        // Read-through: a valid stored object replaces the
        // computation outright. It is the runner's own metrics
        // JSON, so the document is byte-identical either way.
        if (!store) {
            compute(config, result, outcome);
        } else if (store->fetch(spec.runner, config, result)) {
            outcome.hoarded = true;
        } else {
            const ResultCache::Claim claim =
                store->claim(spec.runner, config);
            if (claim == ResultCache::Claim::Held) {
                sink.defer(task);
                return;
            }
            outcome.tookOver = claim == ResultCache::Claim::TakenOver;
            // The last holder may have stored the point and let its
            // claim go between our fetch and our claim.
            if (store->fetch(spec.runner, config, result))
                outcome.hoarded = true;
            else
                compute(config, result, outcome);
            store->release(spec.runner, config);
        }
        sink.commit(index, std::move(result), outcome);
    };

    // One pass over every unique point, then passes over the ones
    // other processes held, until each is fetched or computed here.
    std::vector<std::size_t> tasks(plan.unique.size());
    std::iota(tasks.begin(), tasks.end(), std::size_t{0});
    for (;;) {
        parallelFor(
            options.threads, tasks.size(),
            [&](std::size_t i, std::size_t) { finish(tasks[i]); },
            options.stopRequested);
        tasks = sink.takeDeferred();
        if (tasks.empty()
            || (options.stopRequested && options.stopRequested()))
            break;
        std::this_thread::sleep_for(kRevisitBackoff);
    }

    // Memo duplicates tick once their canonical point has landed.
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        if (plan.canonical[i] != i && assembler.has(plan.canonical[i]))
            sink.memoTick(i);
    }
    sink.account(report);
    report.interrupted = assembler.pending().size();
    report.executed =
        plan.unique.size() - report.interrupted - report.hoardHits;
    report.failed = assembler.failedPoints();
    if (report.interrupted == 0)
        report.doc = assembler.document();
    report.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    return report;
}

} // namespace qc
