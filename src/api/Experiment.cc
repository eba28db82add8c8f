#include "api/Experiment.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "codes/ConcatenatedCode.hh"
#include "common/Logging.hh"
#include "error/RecursiveError.hh"
#include "factory/ConcatenatedFactory.hh"
#include "layout/Builders.hh"

namespace qc {

namespace {

/** Integral factory counts actually built (Table 9's ceilings). */
double
provisionedUnits(double fractional)
{
    return fractional > 0 ? std::ceil(fractional) : 0.0;
}

Json
ionTrapToJson(const IonTrapParams &tech)
{
    Json j = Json::object();
    j.set("t1q_ns", tech.t1q);
    j.set("t2q_ns", tech.t2q);
    j.set("tmeas_ns", tech.tmeas);
    j.set("tprep_ns", tech.tprep);
    j.set("tmove_ns", tech.tmove);
    j.set("tturn_ns", tech.tturn);
    return j;
}

/**
 * obj[key] as T, or fallback when absent. A value T cannot hold
 * throws std::invalid_argument naming the field (prefix + key)
 * rather than wrapping.
 */
template <typename T>
T
getNarrow(const Json &obj, const std::string &prefix,
          const std::string &key, T fallback)
{
    if (!obj.has(key))
        return fallback;
    const std::int64_t v = obj.at(key).asInt();
    if (!std::in_range<T>(v))
        throw std::invalid_argument(
            "config field \"" + prefix + key + "\" = "
            + std::to_string(v) + " is out of range");
    return static_cast<T>(v);
}

IonTrapParams
ionTrapFromJson(const Json &j)
{
    IonTrapParams tech;
    tech.t1q = j.getInt("t1q_ns", tech.t1q);
    tech.t2q = j.getInt("t2q_ns", tech.t2q);
    tech.tmeas = j.getInt("tmeas_ns", tech.tmeas);
    tech.tprep = j.getInt("tprep_ns", tech.tprep);
    tech.tmove = j.getInt("tmove_ns", tech.tmove);
    tech.tturn = j.getInt("tturn_ns", tech.tturn);
    return tech;
}

} // namespace

std::string
scheduleModeName(ScheduleMode mode)
{
    switch (mode) {
      case ScheduleMode::SpeedOfData: return "speed-of-data";
      case ScheduleMode::Throttled:   return "throttled";
      case ScheduleMode::Arch:        return "arch";
    }
    return "?";
}

ScheduleMode
scheduleModeFromName(const std::string &name)
{
    if (name == "speed-of-data")
        return ScheduleMode::SpeedOfData;
    if (name == "throttled")
        return ScheduleMode::Throttled;
    if (name == "arch")
        return ScheduleMode::Arch;
    throw std::invalid_argument(
        "unknown schedule mode \"" + name
        + "\"; expected speed-of-data, throttled, or arch");
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

Json
ExperimentConfig::toJson() const
{
    Json j = Json::object();
    j.set("workload", workload);
    j.set("bits", params.bits);

    Json lowering = Json::object();
    lowering.set("maxRotK", params.lowering.maxRotK);
    j.set("lowering", lowering);

    Json qft = Json::object();
    qft.set("maxK", params.qft.maxK);
    qft.set("withSwaps", params.qft.withSwaps);
    j.set("qft", qft);

    Json synthJson = Json::object();
    synthJson.set("maxSyllables", synth.maxSyllables);
    synthJson.set("maxError", synth.maxError);
    synthJson.set("pureHT", synth.pureHT);
    synthJson.set("tCostWeight", synth.tCostWeight);
    j.set("synth", synthJson);

    j.set("codeLevel", codeLevel);
    j.set("calibrateFactories", calibrateFactories);
    j.set("calibrationTrials",
          static_cast<std::int64_t>(calibrationTrials));
    j.set("tech", ionTrapToJson(tech));

    Json errorsJson = Json::object();
    errorsJson.set("pGate", errors.pGate);
    errorsJson.set("pMove", errors.pMove);
    j.set("errors", errorsJson);

    j.set("schedule", scheduleModeName(schedule));
    j.set("arch", arch);
    j.set("generatorsPerSite", generatorsPerSite);
    j.set("cacheSlots", cacheSlots);
    j.set("areaBudget", areaBudget);
    j.set("teleport_ns", teleport);
    j.set("zeroPerMs", zeroPerMs);
    j.set("pi8PerMs", pi8PerMs);
    j.set("timeLimit_ns", timeLimit);
    j.set("demandBins", demandBins);
    return j;
}

ExperimentConfig
ExperimentConfig::fromJson(const Json &j)
{
    ExperimentConfig config;
    config.workload = j.getString("workload", config.workload);
    config.params.bits = getNarrow(j, "", "bits", config.params.bits);
    if (j.has("lowering")) {
        config.params.lowering.maxRotK =
            getNarrow(j.at("lowering"), "lowering.", "maxRotK",
                      config.params.lowering.maxRotK);
    }
    if (j.has("qft")) {
        const Json &qft = j.at("qft");
        config.params.qft.maxK =
            getNarrow(qft, "qft.", "maxK", config.params.qft.maxK);
        config.params.qft.withSwaps =
            qft.getBool("withSwaps", config.params.qft.withSwaps);
    }
    if (j.has("synth")) {
        const Json &synth = j.at("synth");
        config.synth.maxSyllables =
            getNarrow(synth, "synth.", "maxSyllables",
                      config.synth.maxSyllables);
        config.synth.maxError =
            synth.getDouble("maxError", config.synth.maxError);
        config.synth.pureHT =
            synth.getBool("pureHT", config.synth.pureHT);
        config.synth.tCostWeight =
            getNarrow(synth, "synth.", "tCostWeight",
                      config.synth.tCostWeight);
    }
    config.codeLevel =
        getNarrow(j, "", "codeLevel", config.codeLevel);
    config.calibrateFactories = j.getBool(
        "calibrateFactories", config.calibrateFactories);
    config.calibrationTrials = getNarrow(
        j, "", "calibrationTrials", config.calibrationTrials);
    if (j.has("tech"))
        config.tech = ionTrapFromJson(j.at("tech"));
    if (j.has("errors")) {
        const Json &errors = j.at("errors");
        config.errors.pGate =
            errors.getDouble("pGate", config.errors.pGate);
        config.errors.pMove =
            errors.getDouble("pMove", config.errors.pMove);
    }
    config.schedule = scheduleModeFromName(j.getString(
        "schedule", scheduleModeName(config.schedule)));
    config.arch = j.getString("arch", config.arch);
    config.generatorsPerSite = getNarrow(
        j, "", "generatorsPerSite", config.generatorsPerSite);
    config.cacheSlots =
        getNarrow(j, "", "cacheSlots", config.cacheSlots);
    config.areaBudget =
        j.getDouble("areaBudget", config.areaBudget);
    config.teleport = j.getInt("teleport_ns", config.teleport);
    config.zeroPerMs = j.getDouble("zeroPerMs", config.zeroPerMs);
    config.pi8PerMs = j.getDouble("pi8PerMs", config.pi8PerMs);
    config.timeLimit = j.getInt("timeLimit_ns", config.timeLimit);
    config.demandBins =
        getNarrow(j, "", "demandBins", config.demandBins);
    return config;
}

std::uint64_t
ExperimentConfig::hash() const
{
    return toJson().hash();
}

std::string
ExperimentConfig::workloadKey() const
{
    // Exactly the fields the built workload depends on: configs
    // differing only elsewhere may share one built workload.
    Json j = Json::object();
    j.set("workload", workload);
    j.set("bits", params.bits);
    j.set("maxRotK", params.lowering.maxRotK);
    j.set("qftMaxK", params.qft.maxK);
    j.set("qftWithSwaps", params.qft.withSwaps);
    j.set("maxSyllables", synth.maxSyllables);
    j.set("maxError", synth.maxError);
    j.set("pureHT", synth.pureHT);
    j.set("tCostWeight", synth.tCostWeight);
    return j.dump(0);
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

/**
 * Canonical identity of a config's analytics inputs: exactly the
 * fields computeAnalytics reads. Integers print exactly and the
 * error rates as their bit patterns, so configs that differ in any
 * of those fields never share a key.
 */
std::string
analyticsKey(const ExperimentConfig &config)
{
    const IonTrapParams &tech = config.tech;
    std::string key = detail::concat(
        "tech ", tech.t1q, ' ', tech.t2q, ' ', tech.tmeas, ' ',
        tech.tprep, ' ', tech.tmove, ' ', tech.tturn, " level ",
        config.codeLevel, " bins ", std::max(1, config.demandBins));
    if (config.calibrateFactories) {
        key += detail::concat(
            " calibrated ", config.calibrationTrials, ' ',
            std::bit_cast<std::uint64_t>(config.errors.pGate), ' ',
            std::bit_cast<std::uint64_t>(config.errors.pMove));
    }
    return key;
}

AnalyticsMemo::Analytics
computeAnalytics(const ExperimentConfig &config,
                 const DataflowGraph &graph)
{
    // The encoded-op yardstick: level-1 uses the physical
    // technology point directly; level 2 prices every encoded
    // operation with the recursive effective latencies.
    const IonTrapParams &tech = config.tech;
    const EncodedOpModel model(
        ConcatenatedSteane::effectiveTech(tech, config.codeLevel));
    AnalyticsMemo::Analytics out;
    out.split = latencySplit(graph, model);
    out.bandwidth = bandwidthAtSpeedOfData(graph, model);
    out.demandProfile = ancillaDemandProfile(
        graph, model,
        static_cast<std::size_t>(std::max(1, config.demandBins)));
    if (config.codeLevel >= 2) {
        // Level-2 cascades; optionally with both verification
        // acceptances measured by the recursive Monte Carlo.
        Level2ZeroFactory zero =
            config.calibrateFactories
                ? Level2ZeroFactory::calibrated(
                      tech,
                      analyzeRecursiveError(
                          config.errors,
                          calibrateMovement(buildSimpleFactory(), tech),
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
                      tech, config.errors,
                      calibrateMovement(buildSimpleFactory(), tech),
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
    return entries_.get(analyticsKey(config), [&] {
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
