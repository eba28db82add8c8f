/**
 * @file
 * The unified experiment facade: one configuration object, one
 * runner, one structured result for the paper's whole pipeline —
 * pick a workload, lower it, run it under a schedule/architecture
 * model, and report latency, ancilla demand, factory utilization
 * and throughput.
 *
 * Everything the benches, examples and sweep studies previously
 * wired by hand is one call here:
 *
 *     qc::ExperimentConfig config;
 *     config.workload = "qcla";
 *     config.schedule = qc::ScheduleMode::Arch;
 *     config.arch = "fma";
 *     qc::Result result = qc::runExperiment(config);
 *     std::cout << result.toJson().dump();
 *
 * Configs load/save as JSON, and Result serializes to JSON for the
 * BENCH_* trajectory files. Input errors (unknown workload/arch
 * names, malformed JSON, unsupported code level) throw
 * std::invalid_argument.
 */

#ifndef QC_API_EXPERIMENT_HH
#define QC_API_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/Json.hh"
#include "arch/Microarch.hh"
#include "arch/SpeedOfData.hh"
#include "common/OnceMap.hh"
#include "factory/Allocation.hh"
#include "kernels/Workloads.hh"

namespace qc {

/** How the experiment schedules the lowered dataflow graph. */
enum class ScheduleMode
{
    /**
     * Figure 1b's ideal: all ancilla preparation off the critical
     * path; the makespan is the speed-of-data runtime.
     */
    SpeedOfData,

    /**
     * Steady rate-limited ancilla supply (Figure 8). Rates come
     * from zeroPerMs/pi8PerMs, or from the sized factory
     * allocation when those are zero.
     */
    Throttled,

    /**
     * Full microarchitecture simulation (Figure 15) under the
     * ArchModel named by `arch`.
     */
    Arch,
};

/** Round-trippable display name ("speed-of-data", ...). */
std::string scheduleModeName(ScheduleMode mode);

/** Inverse of scheduleModeName; throws on unknown names. */
ScheduleMode scheduleModeFromName(const std::string &name);

/**
 * Everything one experiment needs, JSON-round-trippable. Defaults
 * reproduce the paper's baseline: 32-bit workloads on the level-1
 * [[7,1,3]] code at the Table 1/4 technology point.
 */
struct ExperimentConfig
{
    /** Workload registry name ("qrca", "qcla", "qft", ...). */
    std::string workload = "qrca";

    /** Workload construction knobs (bits, lowering, qft). */
    WorkloadParams params{};

    /** Rotation-word search knobs (Section 2.5). */
    FowlerSynth::Options synth{};

    /**
     * Error-correction code recursion level: 1 is the paper's
     * [[7,1,3]] Steane baseline, 2 re-encodes every logical qubit
     * as seven level-1 blocks (recursive durations, error rates and
     * cascade factories from codes/ConcatenatedCode.hh,
     * error/RecursiveError.hh and factory/ConcatenatedFactory.hh).
     * Levels outside [1, ConcatenatedSteane::maxModeledLevel] are
     * rejected at run time with std::invalid_argument so configs
     * stay honest about what is modeled.
     */
    int codeLevel = 1;

    /** Physical operation latencies in ns (Tables 1 and 4). */
    IonTrapParams tech = IonTrapParams::paper();

    /** Physical error rates (Section 2.2); recorded in results. */
    ErrorParams errors = ErrorParams::paper();

    /**
     * Monte Carlo factory calibration: when true, the zero-factory
     * designs behind the Table 9 allocation, the throttled-mode
     * default supply rate and the utilization yardsticks are sized
     * from the verification acceptance *measured* at `errors` by
     * the batched Pauli-frame engine (ZeroFactory::calibrated, with
     * movement charges calibrated from the routed Fig 11 layout)
     * instead of the hard-coded Table 6 constant. At codeLevel 2
     * the recursive analysis calibrates both level acceptances.
     * Off by default: the paper's constants keep results
     * bit-reproducible without a Monte Carlo pass.
     */
    bool calibrateFactories = false;

    /** Trials for the calibration pass (per level). Calibrating
     *  with 0 throws std::invalid_argument at run time. */
    std::uint64_t calibrationTrials = 1 << 20;

    /** Schedule mode (see ScheduleMode). */
    ScheduleMode schedule = ScheduleMode::SpeedOfData;

    // --- Arch mode -------------------------------------------------
    /** ArchRegistry key ("qla", "gqla", "cqla", "gcqla", "fma"). */
    std::string arch = "fma";

    /** (G)QLA / (G)CQLA: parallel generators per site. */
    int generatorsPerSite = 1;

    /** (G)CQLA: compute-cache capacity in logical qubits. */
    int cacheSlots = 24;

    /** FullyMultiplexed: total factory area budget (macroblocks). */
    Area areaBudget = 3000;

    /** Teleport latency override in ns; 0 derives from the
     *  effective technology point at codeLevel. */
    Time teleport = 0;

    // --- Throttled mode --------------------------------------------
    /** Encoded-zero supply rate (ancillae per ms); 0 = use the
     *  sized allocation's provisioned rate. */
    BandwidthPerMs zeroPerMs = 0;

    /** Encoded-pi/8 supply rate (ancillae per ms); 0 =
     *  unconstrained. */
    BandwidthPerMs pi8PerMs = 0;

    /**
     * Throttled-run budget in ns: cut the simulation off at this
     * time and report a partial result. 0 = run to completion.
     */
    Time timeLimit = 0;

    // --- Reporting -------------------------------------------------
    /** Bins in the Figure 7 ancilla-demand profile. */
    int demandBins = 40;

    /** MicroarchConfig equivalent (for the arch-mode run). */
    MicroarchConfig microarchConfig() const;

    /** Paper-parity baseline for one workload: 32 bits and the
     *  paper's literal {H, T} synthesis options. */
    static ExperimentConfig paper(const std::string &workload);

    /** JSON round-trip; missing keys keep their defaults. */
    static ExperimentConfig fromJson(const Json &json);
    Json toJson() const;

    /**
     * Canonical identity of the *workload* part of the config
     * (workload name, construction params, synthesis knobs) — the
     * fields Experiment::run(variant) requires to match. Configs
     * with equal workloadKey() can share one built Workload; the
     * sweep engine's cross-point workload cache keys on it.
     */
    std::string workloadKey() const;

    /** File convenience wrappers. */
    static ExperimentConfig load(const std::string &path);
    void save(const std::string &path) const;
};

/**
 * Version of the Result / sweep-document JSON payload. History:
 * 1 was the original facade shape (PR 2); 2 added the gated
 * level-2 keys (code_level, inter-level factory fields — present
 * only on concatenated runs, so level-1 payloads stayed stable)
 * and made the version explicit as "schema_version". Consumers
 * should treat missing "schema_version" as 1.
 */
inline constexpr int kResultSchemaVersion = 2;

/**
 * Structured outcome of one experiment: the Table 2/3 analytics,
 * the Figure 7 demand profile, the Table 9 factory sizing, and the
 * makespan under the configured schedule.
 */
struct Result
{
    std::string workload;  ///< display name
    std::string schedule;  ///< schedule mode name
    std::string arch;      ///< arch model name (Arch mode only)
    int codeLevel = 1;     ///< code recursion level of the run

    // --- Circuit shape ---------------------------------------------
    int qubits = 0;              ///< logical qubit count
    std::uint64_t gates = 0;     ///< fault-tolerant gate count
    std::uint64_t pi8Gates = 0;  ///< non-transversal (T/Tdg) count

    // --- Speed-of-data analytics (always computed) -----------------
    LatencySplit split;            ///< Table 2 latency split (ns)
    BandwidthSummary bandwidth;    ///< Table 3 demand (per ms)
    std::vector<double> demandProfile; ///< Figure 7 envelope
                                       ///< (avg ancillae per bin)

    // --- Factory provisioning (Table 9 sizing, integral units) ----
    FactoryAllocation allocation; ///< counts + areas (macroblocks)
    double zeroUtilization = 0; ///< achieved / provisioned zero BW
    double pi8Utilization = 0;  ///< achieved / provisioned pi/8 BW

    // --- Scheduled outcome -----------------------------------------
    Time makespan = 0;         ///< ns under the configured schedule
    bool completed = true;     ///< false if timeLimit cut it off
    std::uint64_t gatesExecuted = 0; ///< retired (< gates if cut)
    std::uint64_t zerosConsumed = 0;
    std::uint64_t pi8Consumed = 0;
    ArchRunResult archRun;     ///< populated in Arch mode

    /**
     * Logical throughput in KLOPS — thousands of fault-tolerant
     * logical operations per second at the achieved makespan.
     */
    double klops() const;

    /** Slowdown versus the speed-of-data ideal (>= 1). */
    double slowdown() const;

    Json toJson() const;

    /**
     * Compact flat aggregation of the headline metrics (makespan,
     * KLOPS, slowdown, bandwidth, factory area, arch counters when
     * present) for sweep points and trajectory files, where the
     * full nested toJson() per point would drown the signal.
     */
    Json summaryJson() const;
};

/**
 * The speed-of-data analytics of one workload's dataflow graph,
 * computed at most once per analytics key and shared by every
 * Experiment on the bundle. The key holds exactly the inputs the
 * analytics read: the six tech latencies, codeLevel, the clamped
 * demandBins, calibrateFactories and, only when calibrating,
 * calibrationTrials, errors.pGate and errors.pMove.
 *
 * Internally synchronized (see OnceMap): the first requester of a
 * key computes it while later ones wait, and a computation that
 * throws leaves no entry behind, so a later request retries.
 */
class AnalyticsMemo
{
  public:
    /** The yardstick every schedule mode is reported against. */
    struct Analytics
    {
        LatencySplit split;             ///< Table 2
        BandwidthSummary bandwidth;     ///< Table 3
        std::vector<double> demandProfile; ///< Figure 7
        FactoryAllocation allocation;   ///< Table 9 sizing
        /** Delivered bandwidth of one provisioned zero / pi/8
         *  factory at this level (per ms), for the throttled-mode
         *  default supply and the utilization yardsticks. */
        BandwidthPerMs zeroUnitThroughput = 0;
        BandwidthPerMs pi8UnitThroughput = 0;
    };

    /** Memoize analytics of `graph`, which must outlive the memo. */
    explicit AnalyticsMemo(const DataflowGraph &graph) : graph_(graph)
    {
    }

    /** The analytics under `config`'s analytics inputs. */
    const Analytics &get(const ExperimentConfig &config) const;

  private:
    const DataflowGraph &graph_;
    mutable OnceMap<Analytics> entries_;
};

/**
 * An immutable workload bundle shared across many experiments: the
 * built workload, the dependency DAG over its lowered circuit, and
 * the memo of that DAG's analytics. The graph references the
 * workload's circuit in place; makeSharedWorkload therefore builds
 * `graph` and `analytics` as aliasing pointers that co-own the
 * workload, so retaining any one pointer keeps everything it
 * references alive. Build one with makeSharedWorkload or through the
 * sweep engine's cross-point cache (SweepContext::workload).
 * Everything here is const — concurrent experiments may read it
 * freely; the analytics memo is internally synchronized.
 */
struct SharedWorkload
{
    std::shared_ptr<const Workload> workload;
    /** DataflowGraph over workload->lowered.circuit. */
    std::shared_ptr<const DataflowGraph> graph;
    /** Analytics of `graph`, shared by every copy of the bundle. */
    std::shared_ptr<const AnalyticsMemo> analytics;
};

/** Bundle an already-built workload with its dataflow graph and an
 *  empty analytics memo. */
SharedWorkload makeSharedWorkload(Workload workload);

/**
 * Builds the workload once and runs one or more schedule variants
 * against it. Variants read their analytics from the bundle's
 * memo, so those sharing analytics inputs compute them once.
 */
class Experiment
{
  public:
    /** Build the configured workload lazily, on first use. */
    explicit Experiment(ExperimentConfig config);

    /**
     * Const-shared-workload mode: share the workload, its dataflow
     * graph and its analytics memo, so the experiment performs *no*
     * per-point synthesis, copy or graph construction at all, and
     * computes analytics only for keys no experiment on the bundle
     * has asked for — the mode large sweeps run in (every point of
     * a Table 5-8-scale grid reuses one immutable bundle, e.g. the
     * sweep engine's cross-point cache). The config's workload
     * fields are assumed to describe it, and shared.graph must be
     * the DAG over shared.workload->lowered.circuit
     * (makeSharedWorkload guarantees this); a bundle without a memo
     * gets a fresh one. Results are bit-identical to building.
     */
    Experiment(ExperimentConfig config, SharedWorkload shared);

    const ExperimentConfig &config() const { return config_; }

    /** The constructed workload (built lazily, cached). */
    const Workload &workload();

    /** Run with the stored configuration. */
    Result run();

    /**
     * Run a variant configuration against the cached workload. The
     * variant must describe the same workload (equal workloadKey();
     * throws std::invalid_argument on mismatch) —
     * schedule/arch/factory fields may differ freely.
     */
    Result run(const ExperimentConfig &variant);

  private:
    /** The workload bundle: the shared one when provided, else
     *  built on first use. */
    const SharedWorkload &shared();

    ExperimentConfig config_;
    SharedWorkload shared_;
};

/** One-shot convenience: build, run, discard the workload cache. */
Result runExperiment(const ExperimentConfig &config);

} // namespace qc

#endif // QC_API_EXPERIMENT_HH
