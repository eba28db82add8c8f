/**
 * @file
 * Deterministic fault injection for the sweep service's failure
 * machinery. A FaultInjector is parsed from a spec string (the
 * `--fault` flag or the QCARCH_FAULT environment variable) and
 * threaded through the coordinator, the worker and the `qcarch
 * sweep` CLI path, so the kill-matrix CI gate and the tests can
 * place crashes at the exact protocol points the recovery story
 * claims to survive:
 *
 *   crash-before-commit   worker: shard-done marker written +
 *                         fsync'd, process dies before the rename
 *                         publishes it
 *   crash-after-commit    worker: marker renamed into results/,
 *                         process dies before releasing its lease
 *   torn-marker           worker: half the marker bytes are renamed
 *                         into results/ (simulating a non-durable
 *                         commit), then the process dies
 *   stale-heartbeat       worker: acquires its lease, then never
 *                         renews it and dawdles past the TTL, so
 *                         the coordinator reclaims a lease whose
 *                         owner is still alive
 *   slow-worker=MS        worker: sleeps MS milliseconds before
 *                         each point (widens race windows)
 *   crash-at-point=K      sweep/serve: the process dies immediately
 *                         after the K-th point is finished (and in
 *                         the result store)
 *   crash-before-hoard-publish
 *                         hoard store: the object's bytes are
 *                         durably on disk as a temp, the process
 *                         dies before the rename publishes it (no
 *                         reader may ever see the object)
 *   crash-after-hoard-publish
 *                         hoard store: the object is published,
 *                         the process dies before committing the
 *                         point to the sweep document
 *
 * Injected crashes exit with FaultInjector::kExitCode so harnesses
 * can verify the fault actually fired.
 */

#ifndef QC_SERVE_FAULT_INJECTOR_HH
#define QC_SERVE_FAULT_INJECTOR_HH

#include <cstddef>
#include <string>

namespace qc {

class FaultInjector
{
  public:
    /** Exit code of an injected crash (documented in qcarch
     *  --help; distinct from 0/1/2 usage codes and the
     *  interrupted code 3). */
    static constexpr int kExitCode = 42;

    /** The faults `parse` accepts, for error messages and docs. */
    static const char *validSpecs();

    /** Disarmed injector: every query is false, fire() no-ops. */
    FaultInjector() = default;

    /**
     * Parse a spec string ("crash-before-commit",
     * "slow-worker=50", ...). Empty spec → disarmed. Throws
     * std::invalid_argument listing the valid specs otherwise.
     */
    static FaultInjector parse(const std::string &spec);

    /** parse(getenv("QCARCH_FAULT")), disarmed when unset. */
    static FaultInjector fromEnv();

    bool armed() const { return !kind_.empty(); }
    const std::string &kind() const { return kind_; }

    /** The K of crash-at-point=K / the MS of slow-worker=MS. */
    long param() const { return param_; }

    /** True iff armed with exactly this fault kind. */
    bool is(const std::string &kind) const { return kind_ == kind; }

    /**
     * Crash (exit kExitCode, after flushing a stderr note) iff
     * armed with `kind`. The crash sites call this inline:
     * fire("crash-before-commit") between the marker fsync and its
     * rename, etc.
     */
    void fire(const std::string &kind) const;

    /** fire("crash-at-point") iff pointsDone == param(). */
    void fireAtPoint(std::size_t pointsDone) const;

    /** Sleep this thread iff armed with slow-worker. */
    void maybeSleep() const;

  private:
    std::string kind_;
    long param_ = 0;
};

} // namespace qc

#endif // QC_SERVE_FAULT_INJECTOR_HH
