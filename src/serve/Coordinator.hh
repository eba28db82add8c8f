/**
 * @file
 * The sweep service coordinator behind `qcarch serve`: expands a
 * sweep spec into point shards, publishes them in a coordination
 * directory (Protocol.hh), and turns the shard-done markers workers
 * commit back into results by fetching each shard's points from the
 * result store. When every point is in, it writes the document —
 * exactly the document a single-shot `qcarch sweep` would write,
 * byte for byte, because both paths aggregate through
 * SweepAssembler.
 *
 * Failure handling, all of it exercised by tests/test_serve.cc and
 * the CI kill matrix (tools/kill_matrix.sh):
 *
 *  - A worker that dies (or stops heartbeating) forfeits its lease;
 *    the coordinator reclaims it — rename-aside, so each expiry is
 *    reclaimed exactly once — and re-queues only the indices not
 *    already merged. The points the dead worker did publish are
 *    store hits for the next owner, so nothing committed is
 *    computed twice.
 *  - Markers are validated before merging: torn/unparsable files,
 *    markers whose owner no longer holds the shard's lease and
 *    failed points outside the shard are rejected (deleted +
 *    logged). A point a marker claims but the store does not hold
 *    (never published, or quarantined as damaged) is re-queued,
 *    never trusted.
 *  - A restarted coordinator does one fetch pass over the pending
 *    points — everything any worker published is recovered from the
 *    store — then discards leftover markers and serves the rest.
 *  - SIGINT/SIGTERM (via options.stopRequested) marks the directory
 *    "interrupted" so workers drain, writes no document, and returns
 *    kInterruptedExit.
 */

#ifndef QC_SERVE_COORDINATOR_HH
#define QC_SERVE_COORDINATOR_HH

#include <cstddef>
#include <functional>
#include <string>

#include "serve/FaultInjector.hh"
#include "sweep/ResultCache.hh"
#include "sweep/SweepSpec.hh"

namespace qc {

/** Exit code when a stop request drained the run with every
 *  finished point durable in a store (coordinator, worker and
 *  `qcarch sweep` share it). */
constexpr int kInterruptedExit = 3;

struct CoordinatorOptions
{
    std::string outPath; ///< the document, written once complete
    std::string dir;     ///< coordination directory
    /** The result store workers publish to (`qcarch serve` opens
     *  DIR/hoard). Not owned; required. */
    ResultCache *store = nullptr;
    int workersExpected = 1; ///< sizes shards (when shardPoints 0)
    double leaseSeconds = 30.0; ///< worker heartbeat TTL
    /** Points per shard; 0 = auto: pending / (4 * workers), so a
     *  straggler holds at most ~1/4 of a worker's fair share. */
    std::size_t shardPoints = 0;
    int pollMs = 200;    ///< marker/lease scan interval
    bool quiet = false;  ///< suppress the stderr mirror of the log
    FaultInjector fault; ///< honors crash-at-point=K
    /** Polled each loop; true → drain and exit kInterruptedExit. */
    std::function<bool()> stopRequested;
};

struct CoordinatorReport
{
    std::size_t executed = 0;  ///< unique points merged from markers
    std::size_t recovered = 0; ///< unique points fetched at startup
    std::size_t reclaimedExpired = 0; ///< alive-but-stale owners
    std::size_t reclaimedDead = 0;    ///< dead-PID fast path
    std::size_t duplicates = 0; ///< markers for merged shards
    std::size_t rejected = 0;   ///< torn/stale/conflicting markers
    std::size_t failed = 0;     ///< points whose result is an error
    bool interrupted = false;
    int exitCode = 0;
};

/**
 * Run the coordinator until the document is complete (exit 0) or a
 * stop request drains it (exit kInterruptedExit). Throws
 * std::invalid_argument/std::runtime_error on setup problems (bad
 * spec, no store, unwritable directory).
 */
CoordinatorReport runCoordinator(const SweepSpec &spec,
                                 const CoordinatorOptions &options);

} // namespace qc

#endif // QC_SERVE_COORDINATOR_HH
