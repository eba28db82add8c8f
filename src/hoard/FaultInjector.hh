/**
 * @file
 * Deterministic fault injection for the sweep's crash-recovery
 * story. A FaultInjector is parsed from a spec string (the `--fault`
 * flag or the QCARCH_FAULT environment variable) and handed to the
 * HoardStore and the `qcarch sweep` progress hook, so the kill-matrix
 * CI gate and the tests can place crashes at the exact points the
 * recovery story claims to survive:
 *
 *   stale-heartbeat       hoard store: the process's first claim is
 *                         written already due to expire in about a
 *                         second and is never renewed; the process
 *                         then stalls past that expiry (until
 *                         another process takes the claim over, or
 *                         ten seconds pass), so a live holder's
 *                         claim goes stale
 *   slow-point=MS         hoard store: sleeps MS milliseconds after
 *                         claiming each point, before computing it
 *                         (widens race windows)
 *   crash-at-point=K      sweep: the process dies immediately after
 *                         the K-th executed point is finished (and
 *                         in the store)
 *   crash-before-hoard-publish
 *                         hoard store: the object's bytes are
 *                         durably on disk as a temp, the process
 *                         dies before the rename publishes it (no
 *                         reader may ever see the object), still
 *                         holding the point's claim
 *   crash-after-hoard-publish
 *                         hoard store: the object is published,
 *                         the process dies before committing the
 *                         point to the sweep document
 *
 * Injected crashes exit with FaultInjector::kExitCode so harnesses
 * can verify the fault actually fired.
 */

#ifndef QC_HOARD_FAULT_INJECTOR_HH
#define QC_HOARD_FAULT_INJECTOR_HH

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
     * Parse a spec string ("stale-heartbeat", "slow-point=50",
     * ...). Empty spec → disarmed. Throws
     * std::invalid_argument listing the valid specs otherwise.
     */
    static FaultInjector parse(const std::string &spec);

    /** parse(getenv("QCARCH_FAULT")), disarmed when unset. */
    static FaultInjector fromEnv();

    bool armed() const { return !kind_.empty(); }
    const std::string &kind() const { return kind_; }

    /** The K of crash-at-point=K / the MS of slow-point=MS. */
    long param() const { return param_; }

    /** True iff armed with exactly this fault kind. */
    bool is(const std::string &kind) const { return kind_ == kind; }

    /**
     * Crash (exit kExitCode, after flushing a stderr note) iff
     * armed with `kind`. The crash sites call this inline:
     * fire("crash-after-hoard-publish") right after the object's
     * rename, etc.
     */
    void fire(const std::string &kind) const;

    /** fire("crash-at-point") iff pointsDone == param(). */
    void fireAtPoint(std::size_t pointsDone) const;

    /** Sleep this thread iff armed with slow-point. */
    void maybeSleep() const;

  private:
    std::string kind_;
    long param_ = 0;
};

} // namespace qc

#endif // QC_HOARD_FAULT_INJECTOR_HH
