#include "api/Experiment.hh"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "codes/ConcatenatedCode.hh"
#include "error/RecursiveError.hh"
#include "factory/ConcatenatedFactory.hh"

namespace qc {

namespace {

/** Integral factory counts actually built (Table 9's ceilings). */
double
provisionedUnits(double fractional)
{
    return fractional > 0 ? std::ceil(fractional) : 0.0;
}

/** Display names, indexed by ScheduleMode. */
const std::vector<std::string> kScheduleModeNames = {
    "speed-of-data", "throttled", "arch"};

} // namespace

std::string
scheduleModeName(ScheduleMode mode)
{
    return kScheduleModeNames.at(static_cast<std::size_t>(mode));
}

MicroarchConfig
ExperimentConfig::microarchConfig() const
{
    MicroarchConfig out;
    out.tech = tech;
    out.codeLevel = codeLevel;
    out.generatorsPerSite = generatorsPerSite;
    out.cacheSlots = cacheSlots;
    out.areaBudget = areaBudget;
    out.teleport = teleport;
    return out;
}

ExperimentConfig
ExperimentConfig::paper(const std::string &workload)
{
    ExperimentConfig config;
    config.workload = workload;
    config.params.bits = 32;
    // Literal {H, T} rotation words, as in Fowler's search and the
    // paper's QFT derivation (Section 2.5).
    config.synth = FowlerSynth::Options{
        /*maxSyllables=*/6, /*maxError=*/1e-3, /*pureHT=*/true,
        /*tCostWeight=*/3};
    return config;
}

namespace {

/**
 * ExperimentConfig's field table: each row's path, domain, and
 * whether the field enters the workload, analytics and hoard keys.
 * The workload builders check bits, synth.maxSyllables and
 * codeLevel, the arch models cacheSlots and areaBudget, and the
 * calibration pass calibrationTrials. A 0 teleport_ns derives the
 * latency, 0 timeLimit_ns runs to the end, 0 zeroPerMs takes the
 * sized supply and 0 pi8PerMs sets no limit.
 */
const auto &
experimentTable()
{
    const auto fields = [](auto &c, auto &&row) {
        constexpr KeyUse N = KeyUse::No, Y = KeyUse::Yes,
                         G = KeyUse::Gated; // only when calibrating
        row(c.workload, {"workload", {}, Y, N, Y});
        row(c.params.bits, {"bits", {}, Y, N, Y});
        row(c.params.lowering.maxRotK,
            {"lowering.maxRotK", atLeast(0), Y, N, Y});
        row(c.params.qft.maxK, {"qft.maxK", atLeast(0), Y, N, Y});
        row(c.params.qft.withSwaps, {"qft.withSwaps", {}, Y, N, Y});
        row(c.synth.maxSyllables, {"synth.maxSyllables", {}, Y, N, Y});
        row(c.synth.maxError, {"synth.maxError", {}, Y, N, Y});
        row(c.synth.pureHT, {"synth.pureHT", {}, Y, N, Y});
        row(c.synth.tCostWeight, {"synth.tCostWeight", {}, Y, N, Y});
        row(c.codeLevel, {"codeLevel", {}, N, Y, Y});
        row(c.calibrateFactories, {"calibrateFactories", {}, N, Y, Y});
        row(c.calibrationTrials, {"calibrationTrials", {}, N, G, G});
        row(c.tech.t1q, {"tech.t1q_ns", atLeast(0), N, Y, Y});
        row(c.tech.t2q, {"tech.t2q_ns", atLeast(0), N, Y, Y});
        row(c.tech.tmeas, {"tech.tmeas_ns", atLeast(0), N, Y, Y});
        row(c.tech.tprep, {"tech.tprep_ns", atLeast(0), N, Y, Y});
        row(c.tech.tmove, {"tech.tmove_ns", atLeast(0), N, Y, Y});
        row(c.tech.tturn, {"tech.tturn_ns", atLeast(0), N, Y, Y});
        row(c.errors.pGate, {"errors.pGate", within(0, 1), N, G, Y});
        row(c.errors.pMove, {"errors.pMove", within(0, 1), N, G, Y});
        row(c.schedule, {"schedule", oneOf(kScheduleModeNames), N, N, Y});
        row(c.arch, {"arch", {}, N, N, Y});
        row(c.generatorsPerSite, {"generatorsPerSite", atLeast(1), N, N, Y});
        row(c.cacheSlots, {"cacheSlots", {}, N, N, Y});
        row(c.areaBudget, {"areaBudget", {}, N, N, Y});
        row(c.teleport, {"teleport_ns", atLeast(0), N, N, Y});
        row(c.zeroPerMs, {"zeroPerMs", atLeast(0), N, N, Y});
        row(c.pi8PerMs, {"pi8PerMs", atLeast(0), N, N, Y});
        row(c.timeLimit, {"timeLimit_ns", atLeast(0), N, N, Y});
        row(c.demandBins, {"demandBins", atLeast(1), N, Y, N});
    };
    static const FieldTable<ExperimentConfig, decltype(fields)> table(
        fields, "calibrateFactories");
    return table;
}

} // namespace

const FieldSchema &
ExperimentConfig::table()
{
    return experimentTable();
}

ExperimentConfig
ExperimentConfig::fromJson(const Json &json)
{
    return experimentTable().read(json);
}

Json
ExperimentConfig::toJson() const
{
    return experimentTable().write(*this);
}

std::string
ExperimentConfig::workloadKey() const
{
    return experimentTable().key(*this, ConfigKey::Workload);
}

ExperimentConfig
ExperimentConfig::load(const std::string &path)
{
    return fromJson(Json::loadFile(path));
}

void
ExperimentConfig::save(const std::string &path) const
{
    toJson().saveFile(path);
}

double
Result::klops() const
{
    if (makespan <= 0)
        return 0;
    const double seconds =
        static_cast<double>(makespan) / (1e3 * nsPerMs);
    return static_cast<double>(gatesExecuted) / seconds / 1e3;
}

double
Result::slowdown() const
{
    if (bandwidth.runtime <= 0)
        return 1.0;
    return static_cast<double>(makespan)
        / static_cast<double>(bandwidth.runtime);
}

Json
Result::toJson() const
{
    Json j = Json::object();
    j.set("schema_version", kResultSchemaVersion);
    j.set("workload", workload);
    j.set("schedule", schedule);
    if (!arch.empty())
        j.set("arch", arch);
    // Level-1 serialization predates the level knob and stays
    // byte-identical; the key appears only for concatenated runs.
    if (codeLevel != 1)
        j.set("code_level", codeLevel);

    Json circuit = Json::object();
    circuit.set("qubits", qubits);
    circuit.set("gates", gates);
    circuit.set("pi8_gates", pi8Gates);
    j.set("circuit", circuit);

    Json splitJson = Json::object();
    splitJson.set("data_op_us", toUs(split.dataOp));
    splitJson.set("qec_interact_us", toUs(split.qecInteract));
    splitJson.set("ancilla_prep_us", toUs(split.ancillaPrep));
    splitJson.set("data_op_share", split.dataOpShare());
    splitJson.set("qec_interact_share", split.qecInteractShare());
    splitJson.set("ancilla_prep_share", split.ancillaPrepShare());
    j.set("latency_split", splitJson);

    Json bw = Json::object();
    bw.set("speed_of_data_ms", toMs(bandwidth.runtime));
    bw.set("zeros", bandwidth.zerosConsumed);
    bw.set("pi8s", bandwidth.pi8Consumed);
    bw.set("zero_per_ms", bandwidth.zeroPerMs());
    bw.set("pi8_per_ms", bandwidth.pi8PerMs());
    j.set("bandwidth", bw);

    Json profile = Json::array();
    for (double v : demandProfile)
        profile.push(v);
    j.set("demand_profile", profile);

    Json factories = Json::object();
    factories.set("zero_for_qec", allocation.zeroFactoriesForQec);
    factories.set("pi8", allocation.pi8Factories);
    factories.set("zero_for_pi8", allocation.zeroFactoriesForPi8);
    factories.set("qec_area", allocation.qecArea());
    factories.set("pi8_area", allocation.pi8Area());
    factories.set("total_area", allocation.totalArea());
    factories.set("zero_utilization", zeroUtilization);
    factories.set("pi8_utilization", pi8Utilization);
    if (allocation.codeLevel >= 2) {
        factories.set("inter_level_zero_per_ms",
                      allocation.interLevelZeroPerMs);
        factories.set("level1_feeder_factories",
                      allocation.level1FeederFactories);
    }
    j.set("factories", factories);

    Json run = Json::object();
    run.set("makespan_ms", toMs(makespan));
    run.set("completed", completed);
    run.set("gates_executed", gatesExecuted);
    run.set("zeros_consumed", zerosConsumed);
    run.set("pi8_consumed", pi8Consumed);
    run.set("klops", klops());
    run.set("slowdown", slowdown());
    j.set("run", run);

    if (schedule == scheduleModeName(ScheduleMode::Arch)) {
        Json archJson = Json::object();
        archJson.set("ancilla_area", archRun.ancillaArea);
        archJson.set("teleports", archRun.teleports);
        archJson.set("cache_accesses", archRun.cacheAccesses);
        archJson.set("cache_misses", archRun.cacheMisses);
        archJson.set("miss_rate", archRun.missRate());
        j.set("arch_run", archJson);
    }
    return j;
}

Json
Result::summaryJson() const
{
    Json j = Json::object();
    j.set("workload", workload);
    j.set("schedule", schedule);
    if (!arch.empty())
        j.set("arch", arch);
    // Same gating convention as toJson(): level-1 summaries stay
    // byte-identical to the pre-level-knob shape.
    if (codeLevel != 1)
        j.set("code_level", codeLevel);
    j.set("qubits", qubits);
    j.set("gates", gates);
    j.set("makespan_ms", toMs(makespan));
    j.set("klops", klops());
    j.set("slowdown", slowdown());
    if (!completed)
        j.set("completed", completed);
    j.set("zero_per_ms", bandwidth.zeroPerMs());
    j.set("pi8_per_ms", bandwidth.pi8PerMs());
    j.set("factory_area", allocation.totalArea());
    if (allocation.codeLevel >= 2) {
        j.set("inter_level_zero_per_ms",
              allocation.interLevelZeroPerMs);
    }
    if (schedule == scheduleModeName(ScheduleMode::Arch)) {
        j.set("ancilla_area", archRun.ancillaArea);
        if (archRun.cacheAccesses)
            j.set("miss_rate", archRun.missRate());
    }
    return j;
}

namespace {

AnalyticsMemo::Analytics
computeAnalytics(const ExperimentConfig &config,
                 const DataflowGraph &graph)
{
    // The encoded-op yardstick: level-1 uses the physical
    // technology point directly; level 2 prices every encoded
    // operation with the recursive effective latencies.
    const IonTrapParams &tech = config.tech;
    if (config.calibrateFactories && config.calibrationTrials < 1) {
        throw std::invalid_argument(
            "calibrationTrials must be >= 1 when calibrateFactories "
            "is set, got "
            + std::to_string(config.calibrationTrials));
    }
    if (config.demandBins < 1) {
        throw std::invalid_argument(
            "demandBins must be >= 1, got "
            + std::to_string(config.demandBins));
    }
    const EncodedOpModel model(
        ConcatenatedSteane::effectiveTech(tech, config.codeLevel));
    AnalyticsMemo::Analytics out;
    out.split = latencySplit(graph, model);
    out.bandwidth = bandwidthAtSpeedOfData(graph, model);
    out.demandProfile = ancillaDemandProfile(
        graph, model, static_cast<std::size_t>(config.demandBins));
    if (config.codeLevel >= 2) {
        // Level-2 cascades; optionally with both verification
        // acceptances measured by the recursive Monte Carlo.
        Level2ZeroFactory zero =
            config.calibrateFactories
                ? Level2ZeroFactory::calibrated(
                      tech,
                      analyzeRecursiveError(
                          config.errors, kFig11Movement,
                          /*seed=*/1, config.calibrationTrials,
                          config.calibrationTrials * 4))
                : Level2ZeroFactory(tech);
        const Level2Pi8Factory pi8(tech);
        out.allocation = allocateForBandwidthLevel2(
            zero, pi8, out.bandwidth.zeroPerMs(),
            out.bandwidth.pi8PerMs());
        out.zeroUnitThroughput = zero.throughput();
        out.pi8UnitThroughput = pi8.throughput();
    } else {
        const ZeroFactory zero =
            config.calibrateFactories
                ? ZeroFactory::calibrated(
                      tech, config.errors, kFig11Movement,
                      /*seed=*/1, config.calibrationTrials)
                : ZeroFactory(tech);
        const Pi8Factory pi8(tech);
        out.allocation = allocateForBandwidth(
            zero, pi8, out.bandwidth.zeroPerMs(),
            out.bandwidth.pi8PerMs());
        out.zeroUnitThroughput = zero.throughput();
        out.pi8UnitThroughput = pi8.throughput();
    }
    return out;
}

/** Owns the workload a DataflowGraph references in place, and the
 *  graph's analytics memo, so aliasing pointers keep all three
 *  alive together. */
struct GraphHolder
{
    explicit GraphHolder(std::shared_ptr<const Workload> w)
        : workload(std::move(w)), graph(workload->lowered.circuit),
          analytics(graph)
    {
    }
    std::shared_ptr<const Workload> workload;
    DataflowGraph graph;
    AnalyticsMemo analytics;
};

} // namespace

const AnalyticsMemo::Analytics &
AnalyticsMemo::get(const ExperimentConfig &config) const
{
    const std::string key =
        experimentTable().key(config, ConfigKey::Analytics);
    return entries_.get(key, [&] {
        return computeAnalytics(config, graph_);
    });
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config))
{
}

Experiment::Experiment(ExperimentConfig config, SharedWorkload shared)
    : config_(std::move(config)), shared_(std::move(shared))
{
}

SharedWorkload
makeSharedWorkload(Workload workload)
{
    SharedWorkload out;
    out.workload =
        std::make_shared<const Workload>(std::move(workload));
    // The graph references the workload's circuit in place, so the
    // graph pointer must co-own the workload: alias into a holder
    // that keeps all of them alive even if only `graph` or
    // `analytics` is retained.
    auto holder = std::make_shared<const GraphHolder>(out.workload);
    out.graph = std::shared_ptr<const DataflowGraph>(
        holder, &holder->graph);
    out.analytics = std::shared_ptr<const AnalyticsMemo>(
        holder, &holder->analytics);
    return out;
}

const SharedWorkload &
Experiment::shared()
{
    if (!shared_.workload) {
        FowlerSynth synth(config_.synth);
        shared_ = makeSharedWorkload(WorkloadRegistry::instance().build(
            config_.workload, synth, config_.params));
    } else if (!shared_.analytics) {
        // A bundle assembled without makeSharedWorkload.
        shared_.analytics =
            std::make_shared<const AnalyticsMemo>(*shared_.graph);
    }
    return shared_;
}

const Workload &
Experiment::workload()
{
    return *shared().workload;
}

Result
Experiment::run()
{
    return run(config_);
}

Result
Experiment::run(const ExperimentConfig &variant)
{
    ConcatenatedSteane::validateLevel(variant.codeLevel);
    if (variant.workloadKey() != config_.workloadKey()) {
        throw std::invalid_argument(
            "Experiment::run(variant): variant describes a "
            "different workload than the cached one (\""
            + variant.workload + "\" vs \"" + config_.workload
            + "\"); construct a new Experiment instead");
    }

    const Workload &w = *shared().workload;
    const DataflowGraph &graph = *shared().graph;
    const EncodedOpModel model(ConcatenatedSteane::effectiveTech(
        variant.tech, variant.codeLevel));

    Result result;
    result.workload = w.name;
    result.schedule = scheduleModeName(variant.schedule);
    result.codeLevel = variant.codeLevel;
    result.qubits = static_cast<int>(w.lowered.circuit.numQubits());
    const GateCensus census = w.lowered.circuit.census();
    result.gates = census.total;
    result.pi8Gates = census.nonTransversal1q();

    // The speed-of-data analytics are the common yardstick every
    // schedule mode is reported against.
    const AnalyticsMemo::Analytics &cached =
        shared().analytics->get(variant);
    result.split = cached.split;
    result.bandwidth = cached.bandwidth;
    result.demandProfile = cached.demandProfile;
    result.allocation = cached.allocation;

    switch (variant.schedule) {
      case ScheduleMode::SpeedOfData:
        result.makespan = result.bandwidth.runtime;
        result.zerosConsumed = result.bandwidth.zerosConsumed;
        result.pi8Consumed = result.bandwidth.pi8Consumed;
        result.gatesExecuted = result.gates;
        break;

      case ScheduleMode::Throttled: {
        // Default supply: what the integrally provisioned QEC
        // factories actually deliver.
        const BandwidthPerMs zeroRate = variant.zeroPerMs > 0
            ? variant.zeroPerMs
            : provisionedUnits(result.allocation.zeroFactoriesForQec)
                * cached.zeroUnitThroughput;
        const ThrottledResult run =
            throttledRun(graph, model, zeroRate, variant.pi8PerMs,
                         variant.timeLimit);
        result.makespan = run.makespan;
        result.completed = run.completed;
        result.zerosConsumed = run.zerosConsumed;
        result.pi8Consumed = run.pi8Consumed;
        result.gatesExecuted = run.gatesExecuted;
        break;
      }

      case ScheduleMode::Arch: {
        const ArchModel &archModel =
            ArchRegistry::instance().get(variant.arch);
        result.arch = archModel.name();
        result.archRun = archModel.run(graph, model,
                                       variant.microarchConfig());
        result.makespan = result.archRun.makespan;
        result.zerosConsumed = result.archRun.zerosConsumed;
        result.pi8Consumed = result.archRun.pi8Consumed;
        result.gatesExecuted = result.gates;
        break;
      }
    }

    // Factory utilization: achieved consumption rate against the
    // integrally provisioned production bandwidth.
    if (result.makespan > 0) {
        const double ms = toMs(result.makespan);
        const double zeroCap =
            provisionedUnits(result.allocation.zeroFactoriesForQec)
            * cached.zeroUnitThroughput;
        const double pi8Cap =
            provisionedUnits(result.allocation.pi8Factories)
            * cached.pi8UnitThroughput;
        if (zeroCap > 0) {
            result.zeroUtilization =
                static_cast<double>(result.zerosConsumed) / ms
                / zeroCap;
        }
        if (pi8Cap > 0) {
            result.pi8Utilization =
                static_cast<double>(result.pi8Consumed) / ms
                / pi8Cap;
        }
    }
    return result;
}

Result
runExperiment(const ExperimentConfig &config)
{
    return Experiment(config).run();
}

} // namespace qc
