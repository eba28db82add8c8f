/**
 * @file
 * The unit of work a sweep executes: a SweepRunner turns one point
 * configuration (JSON) into one point result (JSON). Runners are
 * registered by string key — the SweepSpec's "runner" field — and
 * publish their config's field table (api/FieldTable.hh): the fields
 * a spec may put on its axes, so bad specs fail fast with the valid
 * field list in the error, each field's type and range, and the
 * fields the hoard key leaves out.
 *
 * Built-ins:
 *
 *  - "experiment"  qc::runExperiment over ExperimentConfig::table(),
 *                  plus "zeroPerMsOfAverage" for Figure 8-style
 *                  throttling at a fraction of the workload's own
 *                  average bandwidth. Workload builds (synthesis
 *                  included) and their analytics are shared across
 *                  points through the SweepContext cache.
 *
 *  - "mc-prep"     BatchAncillaSim Monte Carlo estimation of the
 *                  encoded-zero preparation strategies and the pi/8
 *                  conversion (Figure 4 error-rate planes), over
 *                  the table in SweepRunner.cc.
 *
 *  - "paper"       the paper-fidelity ledger (api/PaperLedger.hh):
 *                  one point, no fields, whose result is every
 *                  ledger row.
 *
 * Every runner must be a pure function of the point configuration
 * (seeded Monte Carlo included) so sweep output is bit-identical
 * regardless of thread count or scheduling.
 */

#ifndef QC_SWEEP_SWEEP_RUNNER_HH
#define QC_SWEEP_SWEEP_RUNNER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/Experiment.hh"
#include "api/FieldTable.hh"
#include "api/Json.hh"
#include "common/OnceMap.hh"

namespace qc {

/**
 * Shared state one sweep run threads through its points: the
 * cross-point workload cache. Thread-safe; the first point to need
 * a workload builds it — synthesis, lowering AND the dataflow
 * graph over the lowered circuit — and every other point shares
 * the immutable SharedWorkload bundle (no per-point synthesis,
 * copy or graph construction) and, through the bundle's memo, its
 * speed-of-data analytics. Concurrent requests for the same
 * workload block on that one build.
 */
class SweepContext
{
  public:
    /** The built workload bundle for the config's workloadKey(). */
    SharedWorkload workload(const ExperimentConfig &config);

  private:
    OnceMap<SharedWorkload> workloads_;
};

/** Turns one point configuration into one point result. */
class SweepRunner
{
  public:
    virtual ~SweepRunner() = default;

    /** Registry key ("experiment", "mc-prep"). */
    virtual std::string name() const = 0;

    /** One-line description for `qcarch list runners`. */
    virtual std::string description() const = 0;

    /** The rows of the runner's field table; the hoard key policy
     *  is derived from them. Empty by default: every field then
     *  enters the hoard key. */
    virtual const FieldSchema &schema() const;

    /** Dotted config fields a spec may sweep, sorted: the schema's
     *  paths by default. */
    virtual std::vector<std::string> fields() const;

    /**
     * The version of the code that computes this runner's results,
     * 0 unless set. A change that moves a result bumps it; a version
     * other than 0 enters the hoard key (hoard/HoardKey.hh), so a
     * store never serves an older version's results.
     */
    virtual int resultVersion() const { return 0; }

    /** Document-level keys merged into the aggregated output
     *  ("engine": "BatchAncillaSim"). */
    virtual Json metadata() const { return Json::object(); }

    /**
     * Run one point. Must be safe to call concurrently from many
     * threads and deterministic in `config`. User-input problems
     * throw std::invalid_argument; the engine records the message
     * on the point rather than abandoning the sweep.
     */
    virtual Json runPoint(const Json &config,
                          SweepContext &context) const = 0;
};

/** Process-wide runner registry; built-ins self-register. */
class SweepRunnerRegistry
{
  public:
    static SweepRunnerRegistry &instance();

    /** Register (or replace) a runner under a lookup key. */
    void add(const std::string &key,
             std::shared_ptr<const SweepRunner> runner);

    bool contains(const std::string &key) const;

    /** Registered keys, sorted. */
    std::vector<std::string> keys() const;

    /** Look up a runner; throws std::invalid_argument listing the
     *  registered keys on unknowns. */
    const SweepRunner &get(const std::string &key) const;

  private:
    std::map<std::string, std::shared_ptr<const SweepRunner>>
        runners_;
};

/** Registers the built-in runners (called once by instance()). */
void registerBuiltinSweepRunners(SweepRunnerRegistry &registry);

} // namespace qc

#endif // QC_SWEEP_SWEEP_RUNNER_HH
