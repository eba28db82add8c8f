/**
 * @file
 * Tests for the qc::Experiment facade: workload/arch registry
 * lookup (including unknown-name errors), the JSON value type,
 * ExperimentConfig round-trips, and bit-identical results between
 * the old hand-wired pipeline and qc::Experiment.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "api/Qc.hh"
#include "arch/SpeedOfData.hh"
#include "circuit/Dataflow.hh"
#include "kernels/Adders.hh"
#include "kernels/Synthetic.hh"

namespace qc {
namespace {

// ---------------------------------------------------------------
// Json
// ---------------------------------------------------------------

TEST(Json, RoundTripsScalarsAndContainers)
{
    Json j = Json::object();
    j.set("flag", true);
    j.set("count", 42);
    j.set("rate", 2.5);
    j.set("name", "qalypso \"quoted\"\n");
    Json arr = Json::array();
    arr.push(1);
    arr.push(Json());
    j.set("list", arr);

    const Json back = Json::parse(j.dump());
    EXPECT_EQ(back, j);
    EXPECT_TRUE(back.at("flag").asBool());
    EXPECT_EQ(back.at("count").asInt(), 42);
    EXPECT_DOUBLE_EQ(back.at("rate").asDouble(), 2.5);
    EXPECT_EQ(back.at("name").asString(), "qalypso \"quoted\"\n");
    EXPECT_EQ(back.at("list").size(), 2u);
    EXPECT_TRUE(back.at("list").at(1).isNull());
}

TEST(Json, IntegersSurviveExactly)
{
    // Time values are int64 nanoseconds; a week of simulated time
    // must round-trip without loss.
    const std::int64_t t = msec(7LL * 24 * 3600 * 1000);
    Json j = Json::object();
    j.set("t", t);
    EXPECT_EQ(Json::parse(j.dump()).at("t").asInt(), t);
    // And without a decimal point in the text.
    EXPECT_NE(j.dump().find(std::to_string(t)), std::string::npos);
}

TEST(Json, ParseErrorsThrow)
{
    EXPECT_THROW(Json::parse("{"), std::invalid_argument);
    EXPECT_THROW(Json::parse("[1,]2"), std::invalid_argument);
    EXPECT_THROW(Json::parse("{\"a\": tru}"), std::invalid_argument);
    EXPECT_THROW(Json::parse("12 34"), std::invalid_argument);
    EXPECT_THROW(Json().at("missing"), std::invalid_argument);
    EXPECT_THROW(Json(1.0).asString(), std::invalid_argument);
    // Non-hex \u escapes are syntax errors, not silent corruption.
    EXPECT_THROW(Json::parse("\"\\u12g4\""), std::invalid_argument);
    EXPECT_THROW(Json::parse("\"\\u-123\""), std::invalid_argument);
    EXPECT_EQ(Json::parse("\"\\u0041\"").asString(), "A");
}

TEST(Json, HostileNestingThrowsInsteadOfOverflowing)
{
    const std::string deep(100000, '[');
    EXPECT_THROW(Json::parse(deep), std::invalid_argument);
    // Reasonable nesting is unaffected.
    std::string ok;
    for (int i = 0; i < 50; ++i)
        ok += '[';
    ok += '1';
    for (int i = 0; i < 50; ++i)
        ok += ']';
    EXPECT_NO_THROW(Json::parse(ok));
}

/** N nested arrays around a scalar: "[[...[1]...]]". */
std::string
nested(int levels)
{
    return std::string(levels, '[') + "1"
           + std::string(levels, ']');
}

TEST(Json, ParseDepthLimitIsExactAndNamed)
{
    // The documented bound: kMaxParseDepth containers parse (the
    // scalar inside is the deepest value), one more throws, and
    // the error names the limit so the fuzz corpus input
    // deep_nesting_4096 stays self-explanatory.
    EXPECT_NO_THROW(Json::parse(nested(Json::kMaxParseDepth - 1)));
    try {
        Json::parse(nested(Json::kMaxParseDepth));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      std::to_string(Json::kMaxParseDepth)),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, DocumentSizeLimitIsEnforcedAndNamed)
{
    // parse() refuses oversized text up front...
    std::string huge(Json::kMaxDocumentBytes + 1, ' ');
    try {
        Json::parse(huge);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(
                      Json::kMaxDocumentBytes)),
                  std::string::npos)
            << e.what();
    }
    // ...and loadFile() refuses by file size, before buffering
    // the bytes (a sparse file keeps this test cheap).
    const std::string path = ::testing::TempDir()
                             + "qc_json_oversize.json";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{}";
    }
    std::filesystem::resize_file(
        path, Json::kMaxDocumentBytes + 1);
    try {
        Json::loadFile(path);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(
                      Json::kMaxDocumentBytes)),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
    // An exactly-at-the-limit document is fine.
    std::string atLimit = "\"";
    atLimit.append(Json::kMaxDocumentBytes - 2, 'x');
    atLimit += "\"";
    EXPECT_NO_THROW(Json::parse(atLimit));
}

TEST(Json, BoundsCheckedAccessorsRejectInsteadOfThrowing)
{
    const Json j = Json::parse(R"({
      "id": "a", "n": 3, "frac": 0.5, "neg": -1,
      "huge": 1e300, "list": [1, 2]
    })");
    // find(): nullptr on absent keys, wrong kinds, and non-object
    // receivers — never a throw.
    EXPECT_NE(j.find("id"), nullptr);
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_EQ(Json(1.0).find("id"), nullptr);
    EXPECT_EQ(j.at("list").find(2), nullptr);
    ASSERT_NE(j.at("list").find(1), nullptr);

    // asIndex(): true only for finite integral non-negative
    // numbers that fit exactly.
    std::size_t out = 99;
    EXPECT_TRUE(j.at("n").asIndex(out));
    EXPECT_EQ(out, 3u);
    EXPECT_FALSE(j.at("frac").asIndex(out));
    EXPECT_FALSE(j.at("neg").asIndex(out));
    EXPECT_FALSE(j.at("huge").asIndex(out));
    EXPECT_FALSE(j.at("id").asIndex(out));

    // asInt() stays range-checked: a number that cannot round-trip
    // through int64 throws instead of truncating.
    EXPECT_THROW(j.at("huge").asInt(), std::invalid_argument);
}

// ---------------------------------------------------------------
// Registries
// ---------------------------------------------------------------

TEST(WorkloadRegistry, ListsBuiltins)
{
    auto &registry = WorkloadRegistry::instance();
    for (const char *name :
         {"qrca", "qcla", "qft", "chain", "ladder"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
        EXPECT_FALSE(registry.description(name).empty()) << name;
    }
    EXPECT_FALSE(registry.contains("grover"));
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"chain", "ladder", "qcla",
                                        "qft", "qrca"}));
}

TEST(WorkloadRegistry, UnknownNameThrowsListingKnown)
{
    FowlerSynth synth;
    try {
        WorkloadRegistry::instance().build("grover", synth);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("grover"), std::string::npos);
        EXPECT_NE(what.find("qrca"), std::string::npos);
        EXPECT_NE(what.find("qft"), std::string::npos);
    }
}

TEST(ArchRegistry, ListsFiveBuiltinModels)
{
    auto &registry = ArchRegistry::instance();
    for (const char *key : {"qla", "gqla", "cqla", "gcqla", "fma"})
        EXPECT_NO_THROW(registry.get(key)) << key;
    EXPECT_EQ(registry.get("qla").name(), "QLA");
    EXPECT_EQ(registry.get("fma").name(), "Fully-Multiplexed");
}

TEST(ArchRegistry, UnknownKeyThrowsListingKnown)
{
    try {
        ArchRegistry::instance().get("systolic");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("systolic"), std::string::npos);
        EXPECT_NE(what.find("fma"), std::string::npos);
    }
}

// ---------------------------------------------------------------
// Synthetic workloads
// ---------------------------------------------------------------

TEST(Synthetic, ChainHasExactShape)
{
    const Circuit c = makeChain(10);
    EXPECT_EQ(c.numQubits(), 1u);
    EXPECT_EQ(c.size(), 10u);
    const GateCensus census = c.census();
    EXPECT_EQ(census.of(GateKind::H), 5u);
    EXPECT_EQ(census.nonTransversal1q(), 5u);
}

TEST(Synthetic, LadderParallelismEqualsWidth)
{
    const Circuit c = makeLadder(6, 4);
    EXPECT_EQ(c.numQubits(), 6u);
    // 6 H per layer + 3/2 bricks alternating, 4 layers.
    const GateCensus census = c.census();
    EXPECT_EQ(census.of(GateKind::H), 24u);
    EXPECT_EQ(census.of(GateKind::CX), 3u + 2u + 3u + 2u);
}

// ---------------------------------------------------------------
// ExperimentConfig JSON round-trip
// ---------------------------------------------------------------

ExperimentConfig
nonDefaultConfig()
{
    ExperimentConfig config;
    config.workload = "qft";
    config.params.bits = 12;
    config.params.lowering.maxRotK = 5;
    config.params.qft.maxK = 7;
    config.params.qft.withSwaps = false;
    config.synth.maxSyllables = 4;
    config.synth.maxError = 2e-3;
    config.synth.pureHT = true;
    config.synth.tCostWeight = 2;
    config.codeLevel = 2;
    config.calibrateFactories = true;
    config.calibrationTrials = 1 << 18;
    config.tech.tmeas = usec(10);
    config.tech.tturn = usec(25);
    config.errors.pGate = 3e-4;
    config.errors.pMove = 2e-6;
    config.schedule = ScheduleMode::Arch;
    config.arch = "gcqla";
    config.generatorsPerSite = 4;
    config.cacheSlots = 12;
    config.areaBudget = 12345.5;
    config.teleport = usec(99);
    config.zeroPerMs = 33.25;
    config.pi8PerMs = 4.5;
    config.timeLimit = msec(250);
    config.demandBins = 17;
    return config;
}

void
expectConfigsEqual(const ExperimentConfig &a,
                   const ExperimentConfig &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.params.bits, b.params.bits);
    EXPECT_EQ(a.params.lowering.maxRotK, b.params.lowering.maxRotK);
    EXPECT_EQ(a.params.qft.maxK, b.params.qft.maxK);
    EXPECT_EQ(a.params.qft.withSwaps, b.params.qft.withSwaps);
    EXPECT_EQ(a.synth.maxSyllables, b.synth.maxSyllables);
    EXPECT_DOUBLE_EQ(a.synth.maxError, b.synth.maxError);
    EXPECT_EQ(a.synth.pureHT, b.synth.pureHT);
    EXPECT_EQ(a.synth.tCostWeight, b.synth.tCostWeight);
    EXPECT_EQ(a.codeLevel, b.codeLevel);
    EXPECT_EQ(a.calibrateFactories, b.calibrateFactories);
    EXPECT_EQ(a.calibrationTrials, b.calibrationTrials);
    EXPECT_EQ(a.tech.t1q, b.tech.t1q);
    EXPECT_EQ(a.tech.t2q, b.tech.t2q);
    EXPECT_EQ(a.tech.tmeas, b.tech.tmeas);
    EXPECT_EQ(a.tech.tprep, b.tech.tprep);
    EXPECT_EQ(a.tech.tmove, b.tech.tmove);
    EXPECT_EQ(a.tech.tturn, b.tech.tturn);
    EXPECT_DOUBLE_EQ(a.errors.pGate, b.errors.pGate);
    EXPECT_DOUBLE_EQ(a.errors.pMove, b.errors.pMove);
    EXPECT_EQ(scheduleModeName(a.schedule),
              scheduleModeName(b.schedule));
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.generatorsPerSite, b.generatorsPerSite);
    EXPECT_EQ(a.cacheSlots, b.cacheSlots);
    EXPECT_DOUBLE_EQ(a.areaBudget, b.areaBudget);
    EXPECT_EQ(a.teleport, b.teleport);
    EXPECT_DOUBLE_EQ(a.zeroPerMs, b.zeroPerMs);
    EXPECT_DOUBLE_EQ(a.pi8PerMs, b.pi8PerMs);
    EXPECT_EQ(a.timeLimit, b.timeLimit);
    EXPECT_EQ(a.demandBins, b.demandBins);
}

TEST(ExperimentConfig, JsonRoundTripPreservesEveryField)
{
    const ExperimentConfig config = nonDefaultConfig();
    const ExperimentConfig back = ExperimentConfig::fromJson(
        Json::parse(config.toJson().dump()));
    expectConfigsEqual(config, back);
    // And the JSON itself is a fixed point.
    EXPECT_EQ(back.toJson(), config.toJson());
}

TEST(ExperimentConfig, FileRoundTrip)
{
    const std::string path = "/tmp/qc_test_config.json";
    const ExperimentConfig config = nonDefaultConfig();
    config.save(path);
    const ExperimentConfig back = ExperimentConfig::load(path);
    expectConfigsEqual(config, back);
    std::remove(path.c_str());
}

TEST(ExperimentConfig, MissingKeysKeepDefaults)
{
    const ExperimentConfig config = ExperimentConfig::fromJson(
        Json::parse("{\"workload\": \"qcla\"}"));
    EXPECT_EQ(config.workload, "qcla");
    const ExperimentConfig defaults;
    EXPECT_EQ(config.params.bits, defaults.params.bits);
    EXPECT_EQ(config.cacheSlots, defaults.cacheSlots);
    EXPECT_EQ(scheduleModeName(config.schedule),
              scheduleModeName(defaults.schedule));
}

TEST(ExperimentConfig, OutOfRangeIntegersAreRejectedNotWrapped)
{
    // Each of these used to wrap: 2^32 + 8 bits ran as an 8-bit
    // adder, 2^32 + 6 syllables as 6, and -1 calibration trials as
    // 2^64 - 1.
    const struct
    {
        const char *doc;
        const char *field;
    } cases[] = {
        {R"({"bits": 4294967304})", "\"bits\""},
        {R"({"synth": {"maxSyllables": 4294967302}})",
         "\"synth.maxSyllables\""},
        {R"({"synth": {"tCostWeight": -2147483649}})",
         "\"synth.tCostWeight\""},
        {R"({"calibrationTrials": -1})", "\"calibrationTrials\""},
        {R"({"lowering": {"maxRotK": 2147483648}})",
         "\"lowering.maxRotK\""},
        {R"({"qft": {"maxK": 1e15}})", "\"qft.maxK\""},
        {R"({"codeLevel": 4294967297})", "\"codeLevel\""},
        {R"({"generatorsPerSite": -4294967295})",
         "\"generatorsPerSite\""},
        {R"({"cacheSlots": 4294967296})", "\"cacheSlots\""},
        {R"({"demandBins": 4294967336})", "\"demandBins\""},
    };
    for (const auto &c : cases) {
        try {
            ExperimentConfig::fromJson(Json::parse(c.doc));
            ADD_FAILURE() << "accepted " << c.doc;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(c.field),
                      std::string::npos)
                << e.what();
        }
    }
    // The ends of each range still parse.
    EXPECT_EQ(ExperimentConfig::fromJson(
                  Json::parse(R"({"bits": 2147483647})"))
                  .params.bits,
              INT_MAX);
    EXPECT_EQ(ExperimentConfig::fromJson(
                  Json::parse(R"({"bits": -2147483648})"))
                  .params.bits,
              INT_MIN);
    EXPECT_EQ(ExperimentConfig::fromJson(
                  Json::parse(R"({"calibrationTrials": 0})"))
                  .calibrationTrials,
              0u);
}

TEST(ExperimentConfig, ScheduleModeNamesRoundTrip)
{
    for (ScheduleMode mode :
         {ScheduleMode::SpeedOfData, ScheduleMode::Throttled,
          ScheduleMode::Arch})
        EXPECT_EQ(scheduleModeFromName(scheduleModeName(mode)),
                  mode);
    EXPECT_THROW(scheduleModeFromName("asap"),
                 std::invalid_argument);
}

// ---------------------------------------------------------------
// Experiment vs the old hand-wired pipeline (bit-identical).
// ---------------------------------------------------------------

class ExperimentParity : public ::testing::Test
{
  protected:
    static ExperimentConfig
    paperConfig(const char *workload, int bits)
    {
        ExperimentConfig config = ExperimentConfig::paper(workload);
        config.params.bits = bits;
        return config;
    }

    /** The pre-redesign wiring every bench used to carry. */
    static Lowered
    handWired(const Circuit &high)
    {
        static FowlerSynth synth(
            ExperimentConfig::paper("qrca").synth);
        return lowerToFaultTolerant(high, synth);
    }
};

TEST_F(ExperimentParity, AdderSpeedOfDataIsBitIdentical)
{
    const Lowered old = handWired(makeQrca(8).circuit);
    const EncodedOpModel model(IonTrapParams::paper());
    const DataflowGraph graph(old.circuit);
    const LatencySplit split = latencySplit(graph, model);
    const BandwidthSummary bw = bandwidthAtSpeedOfData(graph, model);

    const Result result =
        runExperiment(paperConfig("qrca", 8));
    EXPECT_EQ(result.workload, "8-Bit QRCA");
    EXPECT_EQ(result.gates, old.circuit.census().total);
    EXPECT_EQ(result.split.dataOp, split.dataOp);
    EXPECT_EQ(result.split.qecInteract, split.qecInteract);
    EXPECT_EQ(result.split.ancillaPrep, split.ancillaPrep);
    EXPECT_EQ(result.makespan, bw.runtime);
    EXPECT_EQ(result.zerosConsumed, bw.zerosConsumed);
    EXPECT_EQ(result.pi8Consumed, bw.pi8Consumed);
}

TEST_F(ExperimentParity, AdderThrottledIsBitIdentical)
{
    const Lowered old = handWired(makeQrca(8).circuit);
    const EncodedOpModel model(IonTrapParams::paper());
    const DataflowGraph graph(old.circuit);

    ExperimentConfig config = paperConfig("qrca", 8);
    config.schedule = ScheduleMode::Throttled;
    config.zeroPerMs = 25.0;
    const Result result = runExperiment(config);

    const ThrottledResult run = throttledRun(graph, model, 25.0);
    EXPECT_EQ(result.makespan, run.makespan);
    EXPECT_EQ(result.zerosConsumed, run.zerosConsumed);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.gatesExecuted, result.gates);
}

TEST_F(ExperimentParity, QftArchRunIsBitIdentical)
{
    const Lowered old = handWired(makeQft(8));
    const EncodedOpModel model(IonTrapParams::paper());
    const DataflowGraph graph(old.circuit);

    ExperimentConfig config = paperConfig("qft", 8);
    config.schedule = ScheduleMode::Arch;
    config.arch = "gcqla";
    config.generatorsPerSite = 4;
    config.cacheSlots = 8;

    const ArchRunResult oldRun =
        ArchRegistry::instance().get("gcqla").run(
            graph, model, config.microarchConfig());

    const Result result = runExperiment(config);
    EXPECT_EQ(result.makespan, oldRun.makespan);
    EXPECT_EQ(result.archRun.zerosConsumed, oldRun.zerosConsumed);
    EXPECT_EQ(result.archRun.pi8Consumed, oldRun.pi8Consumed);
    EXPECT_EQ(result.archRun.teleports, oldRun.teleports);
    EXPECT_EQ(result.archRun.cacheMisses, oldRun.cacheMisses);
    EXPECT_EQ(result.archRun.cacheAccesses, oldRun.cacheAccesses);
    EXPECT_DOUBLE_EQ(result.archRun.ancillaArea,
                     oldRun.ancillaArea);
}

TEST_F(ExperimentParity, ConfigJsonRoundTripReproducesResult)
{
    // The acceptance-criteria guard: one exemplar config survives a
    // JSON round-trip and reproduces the same Result.
    ExperimentConfig config = paperConfig("qrca", 8);
    config.schedule = ScheduleMode::Arch;
    config.arch = "fma";
    config.areaBudget = 2000;

    const ExperimentConfig reloaded = ExperimentConfig::fromJson(
        Json::parse(config.toJson().dump()));
    const Result a = runExperiment(config);
    const Result b = runExperiment(reloaded);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.zerosConsumed, b.zerosConsumed);
    EXPECT_EQ(a.toJson(), b.toJson());
}

// ---------------------------------------------------------------
// Experiment behavior
// ---------------------------------------------------------------

TEST(Experiment, RejectsUnsupportedCodeLevel)
{
    // Level 2 is modeled since the concatenation PR; level 3 must
    // still fail loudly and name what is modeled.
    ExperimentConfig config;
    config.workload = "chain";
    config.params.bits = 4;
    config.codeLevel = 3;
    try {
        runExperiment(config);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("3"), std::string::npos);
        EXPECT_NE(what.find("level"), std::string::npos);
    }
    config.codeLevel = 0;
    EXPECT_THROW(runExperiment(config), std::invalid_argument);
    config.codeLevel = -1;
    EXPECT_THROW(runExperiment(config), std::invalid_argument);
}

// ---------------------------------------------------------------
// Level-2 concatenation through the facade.
// ---------------------------------------------------------------

class Level2Experiment : public ::testing::Test
{
  protected:
    static ExperimentConfig
    baseConfig()
    {
        ExperimentConfig config = ExperimentConfig::paper("qrca");
        config.params.bits = 6;
        return config;
    }
};

TEST_F(Level2Experiment, SpeedOfDataSelfConsistency)
{
    ExperimentConfig config = baseConfig();
    Experiment experiment(config);
    const Result l1 = experiment.run(config);

    ExperimentConfig level2 = config;
    level2.codeLevel = 2;
    const Result l2 = experiment.run(level2);

    EXPECT_EQ(l1.codeLevel, 1);
    EXPECT_EQ(l2.codeLevel, 2);
    // Same circuit either way; level-2 ops are strictly slower.
    EXPECT_EQ(l2.gates, l1.gates);
    EXPECT_GT(l2.makespan, l1.makespan);
    EXPECT_GT(l2.split.qecInteract, l1.split.qecInteract);
    // Ancilla *counts* are level-independent (two zeros per QEC
    // step, one pi/8 per T), but the stretched runtime lowers the
    // per-ms bandwidth.
    EXPECT_EQ(l2.zerosConsumed, l1.zerosConsumed);
    EXPECT_LT(l2.bandwidth.zeroPerMs(), l1.bandwidth.zeroPerMs());
    // Factory area per delivered bandwidth explodes with the level;
    // even at the lower demand the total area lands in a
    // paper-plausible band above level 1.
    const double areaRatio = l2.allocation.totalArea()
        / l1.allocation.totalArea();
    EXPECT_GT(areaRatio, 2.0);
    EXPECT_LT(areaRatio, 200.0);
    // Inter-level traffic only exists at level 2.
    EXPECT_DOUBLE_EQ(l1.allocation.interLevelZeroPerMs, 0.0);
    EXPECT_GT(l2.allocation.interLevelZeroPerMs,
              l2.bandwidth.zeroPerMs());
}

TEST_F(Level2Experiment, ArchRunsSucceedOnQlaAndCqla)
{
    ExperimentConfig config = baseConfig();
    Experiment experiment(config);
    for (const char *arch : {"qla", "cqla"}) {
        ExperimentConfig l1 = config;
        l1.schedule = ScheduleMode::Arch;
        l1.arch = arch;
        ExperimentConfig l2 = l1;
        l2.codeLevel = 2;
        const Result r1 = experiment.run(l1);
        const Result r2 = experiment.run(l2);
        EXPECT_GT(r2.makespan, r1.makespan) << arch;
        EXPECT_GT(r2.archRun.ancillaArea, r1.archRun.ancillaArea)
            << arch;
        EXPECT_EQ(r2.gatesExecuted, r2.gates) << arch;
        EXPECT_GT(r2.klops(), 0.0) << arch;
    }
}

TEST_F(Level2Experiment, ResultJsonGatesLevelKeys)
{
    ExperimentConfig config = baseConfig();
    Experiment experiment(config);
    const Json j1 = experiment.run(config).toJson();
    // Level-1 serialization stays byte-compatible with PR 2: no
    // level keys appear.
    EXPECT_FALSE(j1.has("code_level"));
    EXPECT_FALSE(j1.at("factories").has("inter_level_zero_per_ms"));

    ExperimentConfig level2 = config;
    level2.codeLevel = 2;
    const Json j2 = experiment.run(level2).toJson();
    EXPECT_EQ(j2.at("code_level").asInt(), 2);
    EXPECT_GT(j2.at("factories")
                  .at("inter_level_zero_per_ms")
                  .asDouble(),
              0.0);
    EXPECT_GT(j2.at("factories")
                  .at("level1_feeder_factories")
                  .asDouble(),
              0.0);
}

TEST(Experiment, CalibrationPassResizesFactoriesOnly)
{
    ExperimentConfig config;
    config.workload = "chain";
    config.params.bits = 6;
    const Result plain = runExperiment(config);

    ExperimentConfig calibrated = config;
    calibrated.calibrateFactories = true;
    calibrated.calibrationTrials = 1 << 16;
    const Result mc = runExperiment(calibrated);

    // The schedule itself is untouched (speed of data has no
    // factory in the loop)...
    EXPECT_EQ(mc.makespan, plain.makespan);
    EXPECT_EQ(mc.zerosConsumed, plain.zerosConsumed);
    // ...but the factory sizing tracks the measured acceptance
    // instead of the Table 6 constant, so the allocation shifts
    // (slightly: the measured rate is near 0.998) while staying in
    // the same band.
    EXPECT_GT(mc.allocation.zeroFactoriesForQec, 0.0);
    EXPECT_NEAR(mc.allocation.zeroFactoriesForQec,
                plain.allocation.zeroFactoriesForQec,
                0.2 * plain.allocation.zeroFactoriesForQec);
}

TEST(Experiment, VariantMustDescribeSameWorkload)
{
    ExperimentConfig config;
    config.workload = "chain";
    config.params.bits = 6;
    Experiment experiment(config);

    ExperimentConfig other = config;
    other.workload = "ladder";
    EXPECT_THROW(experiment.run(other), std::invalid_argument);
    ExperimentConfig swaps = config;
    swaps.params.qft.withSwaps = !config.params.qft.withSwaps;
    EXPECT_THROW(experiment.run(swaps), std::invalid_argument);
    ExperimentConfig weight = config;
    weight.synth.tCostWeight = config.synth.tCostWeight + 1;
    EXPECT_THROW(experiment.run(weight), std::invalid_argument);

    // Schedule knobs may differ freely.
    ExperimentConfig throttled = config;
    throttled.schedule = ScheduleMode::Throttled;
    throttled.zeroPerMs = 50.0;
    EXPECT_NO_THROW(experiment.run(throttled));
}

TEST(Experiment, TimeLimitCutsThrottledRunShort)
{
    ExperimentConfig config;
    config.workload = "chain";
    config.params.bits = 40;
    config.schedule = ScheduleMode::Throttled;
    config.zeroPerMs = 10.0;

    const Result full = runExperiment(config);
    ASSERT_TRUE(full.completed);

    config.timeLimit = full.makespan / 2;
    const Result cut = runExperiment(config);
    EXPECT_FALSE(cut.completed);
    EXPECT_LE(cut.makespan, config.timeLimit);
    EXPECT_LT(cut.gatesExecuted, full.gatesExecuted);
    EXPECT_LT(cut.klops(), full.klops() * 1.5);
}

TEST(Experiment, UtilizationIsAFractionAtSpeedOfData)
{
    const Result result = [&] {
        ExperimentConfig config;
        config.workload = "qcla";
        config.params.bits = 8;
        return runExperiment(config);
    }();
    EXPECT_GT(result.zeroUtilization, 0.0);
    EXPECT_LE(result.zeroUtilization, 1.0 + 1e-9);
    EXPECT_GT(result.klops(), 0.0);
    EXPECT_GE(result.slowdown(), 1.0 - 1e-12);
}

TEST(Experiment, ResultJsonHasTheContractedSections)
{
    ExperimentConfig config;
    config.workload = "chain";
    config.params.bits = 8;
    config.demandBins = 5;
    const Json j = runExperiment(config).toJson();
    for (const char *key :
         {"schema_version", "workload", "schedule", "circuit",
          "latency_split", "bandwidth", "demand_profile",
          "factories", "run"})
        EXPECT_TRUE(j.has(key)) << key;
    EXPECT_EQ(j.at("demand_profile").size(), 5u);
    EXPECT_EQ(j.at("run").at("completed").asBool(), true);
}

TEST(Experiment, SchemaVersionIsTheOnlyTopLevelAddition)
{
    // The schema_version field closes the PR 3 note ("revisit if a
    // schema version field lands"): level-1 payloads must remain
    // byte-identical apart from this single new key. Pin the exact
    // top-level key set — any other addition is a schema change
    // and must bump kResultSchemaVersion.
    ExperimentConfig config;
    config.workload = "chain";
    config.params.bits = 6;
    const Json j = runExperiment(config).toJson();
    EXPECT_EQ(j.at("schema_version").asInt(), kResultSchemaVersion);

    const std::vector<std::string> expected = {
        "bandwidth",      "circuit", "demand_profile",
        "factories",      "latency_split",
        "run",            "schedule", "schema_version",
        "workload"};
    std::vector<std::string> actual;
    for (const auto &[key, value] : j.items())
        actual.push_back(key);
    EXPECT_EQ(actual, expected);

    // Level-1 sweep summaries (the per-point payload) are
    // unchanged entirely: the sweep document carries the version
    // once at top level instead of per point.
    const Json summary = runExperiment(config).summaryJson();
    EXPECT_FALSE(summary.has("schema_version"));
}

} // namespace
} // namespace qc
