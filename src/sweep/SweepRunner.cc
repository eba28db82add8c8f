#include "sweep/SweepRunner.hh"

#include <algorithm>
#include <stdexcept>

#include "api/PaperLedger.hh"
#include "error/BatchAncillaSim.hh"
#include "layout/Builders.hh"
#include "sweep/SweepSpec.hh"

namespace qc {

namespace {

// ----------------------------------------------------------------
// "experiment": the qc::Experiment facade, one point = one Result.
// ----------------------------------------------------------------

class ExperimentRunner : public SweepRunner
{
  public:
    std::string name() const override { return "experiment"; }

    std::string
    description() const override
    {
        return "qc::runExperiment over ExperimentConfig fields "
               "(workloads, schedules, architectures, code levels, "
               "error rates)";
    }

    std::vector<std::string>
    fields() const override
    {
        // Every leaf ExperimentConfig::toJson() writes, plus the
        // derived Figure 8 fraction below.
        std::vector<std::string> out;
        flattenPaths(ExperimentConfig{}.toJson(), "", out);
        out.push_back("zeroPerMsOfAverage");
        std::sort(out.begin(), out.end());
        return out;
    }

    Json
    runPoint(const Json &config,
             SweepContext &context) const override
    {
        const ExperimentConfig c = ExperimentConfig::fromJson(config);
        SharedWorkload workload = context.workload(c);

        // Figure 8-style derived throttling: a supply rate given as
        // a fraction of this workload's own average bandwidth at
        // speed of data (from the bundle's analytics memo, so
        // computed once per workload, not per fraction point).
        const double fraction =
            config.getDouble("zeroPerMsOfAverage", 0.0);
        if (fraction > 0) {
            if (c.schedule != ScheduleMode::Throttled) {
                throw std::invalid_argument(
                    "zeroPerMsOfAverage is a throttled-mode knob; "
                    "this point's schedule is \""
                    + scheduleModeName(c.schedule)
                    + "\" — set \"schedule\": \"throttled\" or "
                      "drop the fraction");
            }
            ExperimentConfig throttled = c;
            throttled.zeroPerMs =
                workload.analytics->get(c).bandwidth.zeroPerMs()
                * fraction;
            Experiment experiment(throttled, std::move(workload));
            Json out = experiment.run().summaryJson();
            out.set("zero_supply_per_ms", throttled.zeroPerMs);
            return out;
        }
        Experiment experiment(c, std::move(workload));
        return experiment.run().summaryJson();
    }
};

// ----------------------------------------------------------------
// "mc-prep": BatchAncillaSim Monte Carlo points (Figure 4 planes).
// ----------------------------------------------------------------

struct McStrategy
{
    const char *key;
    ZeroPrepStrategy strategy;
    bool pi8;
};

constexpr McStrategy kMcStrategies[] = {
    {"basic", ZeroPrepStrategy::Basic, false},
    {"verify_only", ZeroPrepStrategy::VerifyOnly, false},
    {"correct_only", ZeroPrepStrategy::CorrectOnly, false},
    {"verify_and_correct", ZeroPrepStrategy::VerifyAndCorrect,
     false},
    {"pi8_conversion", ZeroPrepStrategy::VerifyAndCorrect, true},
};

const McStrategy &
mcStrategy(const std::string &key)
{
    for (const McStrategy &s : kMcStrategies) {
        if (key == s.key)
            return s;
    }
    std::vector<std::string> keys;
    for (const McStrategy &s : kMcStrategies)
        keys.push_back(s.key);
    throw std::invalid_argument("unknown mc-prep strategy \"" + key
                                + "\"; expected one of: "
                                + joinNames(keys));
}

/** config[key] as a trial count: absent gives fallback, and a
 *  value below 1 throws naming the field. */
std::uint64_t
mcTrials(const Json &config, const std::string &key,
         std::uint64_t fallback)
{
    const std::uint64_t trials = getNarrow(config, "", key, fallback);
    if (trials < 1)
        throw std::invalid_argument("config field \"" + key
                                    + "\" must be >= 1");
    return trials;
}

CorrectionSemantics
mcSemantics(const std::string &key)
{
    if (key == "discard_on_syndrome")
        return CorrectionSemantics::DiscardOnSyndrome;
    if (key == "apply_fix")
        return CorrectionSemantics::ApplyFix;
    throw std::invalid_argument(
        "unknown mc-prep semantics \"" + key
        + "\"; expected discard_on_syndrome or apply_fix");
}

class McPrepRunner : public SweepRunner
{
  public:
    std::string name() const override { return "mc-prep"; }

    std::string
    description() const override
    {
        return "BatchAncillaSim Monte Carlo ancilla-prep error "
               "rates over (strategy, pGate, pMove) grids";
    }

    std::vector<std::string>
    fields() const override
    {
        return {"maxFaults", "pGate", "pMove", "sampler", "seed",
                "semantics", "strategy", "trials",
                "trialsPerStratum", "wordsPerQubit"};
    }

    Json
    metadata() const override
    {
        Json j = Json::object();
        j.set("engine", "BatchAncillaSim");
        return j;
    }

    Json
    runPoint(const Json &config, SweepContext &) const override
    {
        ErrorParams errors;
        errors.pGate = config.getDouble("pGate", errors.pGate);
        errors.pMove = config.getDouble("pMove", errors.pMove);
        const std::uint64_t trials =
            mcTrials(config, "trials", 400000);
        const std::uint64_t seed = static_cast<std::uint64_t>(
            config.getInt("seed", 20080623));
        const McStrategy &strategy =
            mcStrategy(config.getString("strategy", "basic"));
        const CorrectionSemantics semantics = mcSemantics(
            config.getString("semantics", "discard_on_syndrome"));

        BatchSimConfig batch;
        batch.wordsPerQubit = getNarrow(config, "", "wordsPerQubit",
                                        batch.wordsPerQubit);
        // One thread per point: the sweep engine owns parallelism
        // across points. (The engine is bit-identical across its
        // own thread counts anyway; this keeps a point's cost
        // independent of the pool size.)
        batch.threads = 1;

        // Movement charges calibrated from the routed Fig 11
        // layout — identical for every point, so computed once.
        static const MovementModel movement = calibrateMovement(
            buildSimpleFactory(), IonTrapParams::paper());

        const ErrorParams paper = ErrorParams::paper();
        Json out = Json::object();
        out.set("paper_point", errors.pGate == paper.pGate
                                   && errors.pMove == paper.pMove);

        BatchAncillaSim sim(errors, movement, seed, semantics,
                            batch);

        const std::string sampler =
            config.getString("sampler", "naive");
        if (sampler == "stratified") {
            // Rare-event importance sampling (see
            // error/ImportanceSampler.hh): tight CIs at
            // deep-subthreshold points where `trials` naive trials
            // would record zero failures.
            ImportanceConfig ic;
            ic.maxFaults =
                getNarrow(config, "", "maxFaults", ic.maxFaults);
            ic.trialsPerStratum = mcTrials(
                config, "trialsPerStratum", ic.trialsPerStratum);
            const StratifiedEstimate est = strategy.pi8
                ? sim.estimateStratifiedPi8(ic)
                : sim.estimateStratified(strategy.strategy, ic);
            const Interval ci = est.errorInterval();
            out.set("error_rate", est.errorRate());
            out.set("ci_lo", ci.lo);
            out.set("ci_hi", ci.hi);
            out.set("gate_sites",
                    static_cast<std::int64_t>(est.gateSites));
            out.set("move_sites",
                    static_cast<std::int64_t>(est.moveSites));
            out.set("strata",
                    static_cast<std::int64_t>(est.strata.size()));
            out.set("truncated_prior", est.truncatedPrior);
            out.set("trials", est.totalTrials);
            return out;
        }
        if (sampler != "naive")
            throw std::invalid_argument(
                "unknown mc-prep sampler \"" + sampler
                + "\"; expected naive or stratified");

        const PrepEstimate est = strategy.pi8
            ? sim.estimatePi8(trials)
            : sim.estimate(strategy.strategy, trials);
        const Interval ci = est.errorInterval();
        out.set("error_rate", est.errorRate());
        out.set("ci_lo", ci.lo);
        out.set("ci_hi", ci.hi);
        out.set("verify_fail_rate", est.discardRate());
        out.set("trials", est.trials);
        return out;
    }
};

// ----------------------------------------------------------------
// "paper": the paper-fidelity ledger, one point, no fields.
// ----------------------------------------------------------------

class PaperRunner : public SweepRunner
{
  public:
    std::string name() const override { return "paper"; }

    std::string
    description() const override
    {
        return "the paper-fidelity ledger: Tables 1-9 and Figures 4, "
               "5b and 7 beside the paper's printed values";
    }

    std::vector<std::string> fields() const override { return {}; }

    Json
    runPoint(const Json &, SweepContext &) const override
    {
        return paperLedger();
    }
};

} // namespace

SharedWorkload
SweepContext::workload(const ExperimentConfig &config)
{
    // Synthesis, lowering and the dataflow graph, once per workload.
    return workloads_.get(config.workloadKey(), [&] {
        FowlerSynth synth(config.synth);
        return makeSharedWorkload(WorkloadRegistry::instance().build(
            config.workload, synth, config.params));
    });
}

SweepRunnerRegistry &
SweepRunnerRegistry::instance()
{
    static SweepRunnerRegistry *registry = [] {
        auto *r = new SweepRunnerRegistry;
        registerBuiltinSweepRunners(*r);
        return r;
    }();
    return *registry;
}

void
SweepRunnerRegistry::add(const std::string &key,
                         std::shared_ptr<const SweepRunner> runner)
{
    runners_[key] = std::move(runner);
}

bool
SweepRunnerRegistry::contains(const std::string &key) const
{
    return runners_.count(key) != 0;
}

std::vector<std::string>
SweepRunnerRegistry::keys() const
{
    std::vector<std::string> out;
    for (const auto &[key, runner] : runners_)
        out.push_back(key);
    return out;
}

const SweepRunner &
SweepRunnerRegistry::get(const std::string &key) const
{
    auto it = runners_.find(key);
    if (it == runners_.end()) {
        throw std::invalid_argument(
            "unknown sweep runner \"" + key
            + "\"; registered runners: " + joinNames(keys()));
    }
    return *it->second;
}

void
registerBuiltinSweepRunners(SweepRunnerRegistry &registry)
{
    registry.add("experiment",
                 std::make_shared<const ExperimentRunner>());
    registry.add("mc-prep", std::make_shared<const McPrepRunner>());
    registry.add("paper", std::make_shared<const PaperRunner>());
}

} // namespace qc
