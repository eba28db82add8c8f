/**
 * @file
 * The sweep service worker behind `qcarch work`: polls a
 * coordination directory (Protocol.hh), checks a shard out under
 * an exclusive lease, fetches each point from the shared result
 * store or computes it through the same SweepRunner path the
 * single-shot engine uses and publishes it there, then commits a
 * shard-done marker durably. Idle workers back off exponentially
 * with jitter, so a fleet pointed at an empty queue does not hammer
 * the filesystem in lockstep.
 *
 * A worker heartbeats its lease (renewal every TTL/3) from a side
 * thread while computing. Losing the lease — the coordinator
 * reclaimed it after a stall — aborts the commit: ownership is
 * re-verified (nonce re-read) immediately before the marker is
 * published, so a reclaimed worker never commits over the shard's
 * new owner; the points it already published stay useful as store
 * hits. A stop request (SIGINT/SIGTERM) commits a partial marker
 * and exits with kInterruptedExit; the coordinator re-queues the
 * points the store does not hold.
 */

#ifndef QC_SERVE_WORKER_HH
#define QC_SERVE_WORKER_HH

#include <functional>
#include <string>

#include "serve/FaultInjector.hh"
#include "sweep/ResultCache.hh"

namespace qc {

struct WorkerOptions
{
    std::string dir;    ///< coordination directory
    /** The result store points are fetched from and published to
     *  (`qcarch work` opens DIR/hoard). Not owned; required. A
     *  publish that throws ends the worker with that error. */
    ResultCache *store = nullptr;
    int pollMs = 100;   ///< initial idle poll / backoff floor
    int backoffMaxMs = 2000; ///< idle backoff ceiling
    /** Exit 0 after this long with no shard acquired and no done
     *  marker (0 = wait forever for the coordinator). */
    double maxIdleSeconds = 0.0;
    bool quiet = false;
    FaultInjector fault; ///< crash-before/after-commit, torn-marker,
                         ///< stale-heartbeat, slow-worker=MS
    /** Polled between points; true → partial commit + exit
     *  kInterruptedExit. */
    std::function<bool()> stopRequested;
};

struct WorkerReport
{
    std::size_t shards = 0; ///< markers committed (partials count)
    std::size_t points = 0; ///< points finished in committed shards
    std::size_t abandoned = 0; ///< shards dropped to a lost lease
    bool interrupted = false;
    int exitCode = 0;
};

/**
 * Run the worker until the coordinator writes the done marker
 * (exit 0), the idle limit passes (exit 0), or a stop request
 * drains it (exit kInterruptedExit). Throws on setup problems
 * (no store, unreadable directory, unknown runner in the manifest)
 * and on a failed publish.
 */
WorkerReport runWorker(const WorkerOptions &options);

} // namespace qc

#endif // QC_SERVE_WORKER_HH
