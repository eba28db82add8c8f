#include "sweep/SweepRunner.hh"

#include <stdexcept>

#include "api/PaperLedger.hh"
#include "error/BatchAncillaSim.hh"
#include "sweep/SweepSpec.hh"

namespace qc {

namespace {

// ----------------------------------------------------------------
// "experiment": the qc::Experiment facade, one point = one Result.
// ----------------------------------------------------------------

/** The experiment runner's one field beyond ExperimentConfig:
 *  Figure 8-style throttling at a fraction of the workload's own
 *  average zero bandwidth at speed of data; 0 = off. */
const FieldSpec &
fig8Fraction()
{
    static const FieldSpec spec({"zeroPerMsOfAverage", atLeast(0),
                                 KeyUse::No, KeyUse::No, KeyUse::Yes},
                                0.0);
    return spec;
}

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

    const FieldSchema &
    schema() const override
    {
        static const FieldSchema schema = [] {
            FieldSchema out = ExperimentConfig::table();
            out.specs.push_back(fig8Fraction());
            return out;
        }();
        return schema;
    }

    /** 1: calibrated points read the naive Monte Carlo that
     *  simulates only the trials that fault. */
    int resultVersion() const override { return 1; }

    Json
    runPoint(const Json &config,
             SweepContext &context) const override
    {
        const ExperimentConfig c = ExperimentConfig::fromJson(config);
        double fraction = 0;
        if (const Json *value = fig8Fraction().find(config))
            fig8Fraction().assign(*value, fraction);
        SharedWorkload workload = context.workload(c);

        // The fraction's yardstick comes from the bundle's analytics
        // memo, so it is computed once per workload, not per
        // fraction point.
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

/** The mc-prep strategies: ZeroPrepStrategy's, in its order, then
 *  the pi/8 conversion from verified-and-corrected zeros. */
enum class McStrategy
{
    Basic,
    VerifyOnly,
    CorrectOnly,
    VerifyAndCorrect,
    Pi8Conversion,
};
static_assert(static_cast<int>(ZeroPrepStrategy::VerifyAndCorrect)
              == static_cast<int>(McStrategy::VerifyAndCorrect));

/** One mc-prep point. */
struct McPrepPoint
{
    ErrorParams errors;
    std::uint64_t trials = 400000;
    std::int64_t seed = 20080623;
    McStrategy strategy = McStrategy::Basic;
    CorrectionSemantics semantics =
        CorrectionSemantics::DiscardOnSyndrome;
    std::string sampler = "naive";
    BatchSimConfig batch;
    ImportanceConfig importance;
};

/**
 * The mc-prep field table: every field enters the hoard key only;
 * strategy and semantics in their enums' order. The batch engine is
 * measured at 4 to 64 words per qubit plane, and 1024 keeps its
 * 64 * wordsPerQubit trials per batch far inside int. The importance
 * sampler rejects a negative maxFaults.
 */
const auto &
mcPrepTable()
{
    const auto fields = [](auto &p, auto &&row) {
        constexpr KeyUse N = KeyUse::No, Y = KeyUse::Yes;
        row(p.errors.pGate, {"pGate", within(0, 1), N, N, Y});
        row(p.errors.pMove, {"pMove", within(0, 1), N, N, Y});
        row(p.trials, {"trials", atLeast(1), N, N, Y});
        row(p.seed, {"seed", {}, N, N, Y});
        row(p.strategy,
            {"strategy",
             oneOf({"basic", "verify_only", "correct_only",
                    "verify_and_correct", "pi8_conversion"}),
             N, N, Y});
        row(p.semantics,
            {"semantics", oneOf({"discard_on_syndrome", "apply_fix"}),
             N, N, Y});
        row(p.sampler,
            {"sampler", oneOf({"naive", "stratified"}), N, N, Y});
        row(p.batch.wordsPerQubit,
            {"wordsPerQubit", within(1, 1024), N, N, Y});
        row(p.importance.maxFaults, {"maxFaults", {}, N, N, Y});
        row(p.importance.trialsPerStratum,
            {"trialsPerStratum", atLeast(1), N, N, Y});
    };
    static const FieldTable<McPrepPoint, decltype(fields)> table(fields);
    return table;
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

    const FieldSchema &schema() const override { return mcPrepTable(); }

    /** 1: stratified points run their strata on the batch engine.
     *  2: naive points simulate only the trials that fault, and
     *  stratified pi/8 points count their (0,0) stratum's fix-up
     *  failures. */
    int resultVersion() const override { return 2; }

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
        const McPrepPoint point = mcPrepTable().read(config);
        const bool pi8 = point.strategy == McStrategy::Pi8Conversion;
        const ZeroPrepStrategy strategy = pi8
            ? ZeroPrepStrategy::VerifyAndCorrect
            : static_cast<ZeroPrepStrategy>(point.strategy);
        BatchSimConfig batch = point.batch;
        // One thread per point: the sweep engine owns parallelism
        // across points. (The engine is bit-identical across its
        // own thread counts anyway; this keeps a point's cost
        // independent of the pool size.)
        batch.threads = 1;

        const ErrorParams paper = ErrorParams::paper();
        Json out = Json::object();
        out.set("paper_point", point.errors.pGate == paper.pGate
                                   && point.errors.pMove == paper.pMove);

        BatchAncillaSim sim(point.errors, kFig11Movement,
                            static_cast<std::uint64_t>(point.seed),
                            point.semantics, batch);

        if (point.sampler == "stratified") {
            // Rare-event importance sampling (see
            // error/ImportanceSampler.hh): tight CIs at
            // deep-subthreshold points where `trials` naive trials
            // would record zero failures.
            const StratifiedEstimate est = pi8
                ? sim.estimateStratifiedPi8(point.importance)
                : sim.estimateStratified(strategy, point.importance);
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

        const PrepEstimate est = pi8
            ? sim.estimatePi8(point.trials)
            : sim.estimate(strategy, point.trials);
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

    /** 1: the Monte Carlo rows simulate only the trials that
     *  fault. */
    int resultVersion() const override { return 1; }

    Json
    runPoint(const Json &, SweepContext &) const override
    {
        return paperLedger();
    }
};

} // namespace

const FieldSchema &
SweepRunner::schema() const
{
    static const FieldSchema empty;
    return empty;
}

std::vector<std::string>
SweepRunner::fields() const
{
    return schema().paths();
}

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
