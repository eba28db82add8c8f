/**
 * @file
 * The parallel sweep executor: expands a SweepSpec, memoizes
 * duplicate points by configuration hash, runs the unique points
 * through qc::parallelFor (common/ParallelFor.hh), and aggregates
 * the results into one JSON document in deterministic (expansion)
 * order.
 *
 * Output is bit-identical for a given spec regardless of thread
 * count: results land in expansion-order slots, the memo cache is
 * computed from the point list (not the schedule), and nothing
 * wall-clock-dependent enters the document. Wall time and thread
 * count are reported out-of-band in the SweepReport.
 *
 * Several processes may run the same sweep against one shared
 * store: each claims a point before computing it (ResultCache::
 * claim), skips points another live process holds, and revisits
 * them after the rest until it can fetch them or take their claim
 * over. Every process writes the same document.
 *
 * Document shape (BENCH_*.json-compatible: flat metric keys per
 * point under a "points" array):
 *
 *     {
 *       "schema_version": 2,
 *       "sweep": "<spec name>",
 *       "runner": "<runner key>",
 *       ...runner metadata ("engine": ...),
 *       "spec": { ...the spec itself, for provenance... },
 *       "grid_points": N,
 *       "cache": {"hits": H, "misses": M},
 *       "points": [ {<axis assignments> + <runner metrics>}, ... ]
 *     }
 */

#ifndef QC_SWEEP_SWEEP_ENGINE_HH
#define QC_SWEEP_SWEEP_ENGINE_HH

#include <cstddef>
#include <functional>
#include <string>

#include "sweep/ResultCache.hh"
#include "sweep/SweepRunner.hh"
#include "sweep/SweepSpec.hh"

namespace qc {

/** One progress tick, delivered serially (under the engine lock). */
struct SweepProgress
{
    std::size_t done = 0;  ///< points finished (cache hits included)
    std::size_t total = 0; ///< expanded point count
    /** The point that just finished. */
    const SweepPoint *point = nullptr;
    bool cached = false;   ///< satisfied from the memo cache
    bool hoarded = false;  ///< satisfied from the result store
};

/** Execution knobs; the spec itself stays machine-independent. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency().
     *  Results are independent of this value. */
    int threads = 1;

    /** Progress sink; called serially, may be empty. */
    std::function<void(const SweepProgress &)> progress;

    /**
     * Graceful-drain hook, polled between points (a running point
     * always completes). When it returns true no further point
     * starts, and runSweep returns without a document,
     * with SweepReport::interrupted counting the undone points.
     * Every finished point is already in `hoard`, so re-running
     * against the same store computes only the rest. `qcarch
     * sweep` wires its SIGINT/SIGTERM flag here. May be empty.
     */
    std::function<bool()> stopRequested;

    /**
     * The result store, and the sweep's only persistence (`qcarch
     * sweep --hoard DIR` or the private `<out>.hoard/` store,
     * docs/HOARD.md). Each unique point is first looked up
     * (read-through, from the workers), then claimed; a point
     * another process holds is revisited after the rest. Each newly
     * computed non-error result is published back before its claim
     * is released and before its progress tick, so a crash after
     * the K-th tick leaves K points in the store and a re-run
     * executes only the rest. Hits are byte-identical
     * to cold computation by construction — the stored object is
     * the runner's own metrics JSON — so the document never depends
     * on the store's state. A publish that throws (a full disk)
     * costs only that point's crash durability: the point still
     * lands in the document and counts in SweepReport::hoardFailed.
     * The production implementation is HoardStore, injected by the
     * CLI; the engine sees only the ResultCache interface. Not
     * owned; must outlive runSweep. Thread-safe.
     */
    ResultCache *hoard = nullptr;
};

/** Outcome of one sweep run. */
struct SweepReport
{
    /** The aggregated document; Null when a drain interrupted the
     *  run (a partial document is never emitted). */
    Json doc;
    std::size_t points = 0;     ///< expanded point count
    std::size_t cacheHits = 0;  ///< points served from the memo
    std::size_t cacheMisses = 0;///< unique points (memo misses)
    /** Unique points actually run (store hits excluded). */
    std::size_t executed = 0;
    std::size_t failed = 0;     ///< points that threw (see "error")
    /** Unique points served from the result store. */
    std::size_t hoardHits = 0;
    /** Newly computed points published to the result store. */
    std::size_t hoardStored = 0;
    /** Computed points whose publish threw: in the document, but
     *  not in the store. */
    std::size_t hoardFailed = 0;
    std::string hoardError; ///< the first failed publish's message
    /** Points whose claim was taken from a dead or expired holder. */
    std::size_t claimsTakenOver = 0;
    /** Unique points left undone by a stopRequested drain
     *  (0 = ran to completion). */
    std::size_t interrupted = 0;
    double wallSeconds = 0;     ///< not part of doc (determinism)
};

/**
 * Expand and execute a sweep. Spec-shape problems (unknown runner
 * or axis fields, zip mismatches) and zero-point specs throw
 * std::invalid_argument; per-point execution errors are recorded
 * on the point as {"error": message} and counted in
 * SweepReport::failed.
 */
SweepReport runSweep(const SweepSpec &spec,
                     const SweepOptions &options = {});

} // namespace qc

#endif // QC_SWEEP_SWEEP_ENGINE_HH
