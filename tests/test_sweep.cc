/**
 * @file
 * Tests for the sweep subsystem: SweepSpec parsing and expansion
 * (cartesian order, zipped axes, grid unions, bad-field errors
 * listing the valid fields), the config-hash memoization cache's
 * hit/miss accounting, thread-count invariance of the aggregated
 * JSON, runner parity with the direct engines, re-runs against a
 * result store (the sweep's only checkpoint), and the shipped
 * specs under specs/.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/Qc.hh"
#include "error/BatchAncillaSim.hh"
#include "layout/Builders.hh"
#include "sweep/Sweep.hh"

namespace qc {
namespace {

Json
parse(const std::string &text)
{
    return Json::parse(text);
}

// ---------------------------------------------------------------
// SweepSpec parsing and expansion
// ---------------------------------------------------------------

TEST(SweepSpec, ExpandsCartesianProductLastAxisFastest)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 1000},
      "axes": [
        {"field": "pGate", "values": [1e-5, 1e-4]},
        {"field": "pMove", "values": [1e-7, 1e-6, 1e-5]}
      ]
    })"));
    EXPECT_EQ(spec.points(), 6u);

    const std::vector<SweepPoint> points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    // Nested-loop order: pMove (last axis) varies fastest.
    EXPECT_DOUBLE_EQ(points[0].config.at("pGate").asDouble(), 1e-5);
    EXPECT_DOUBLE_EQ(points[0].config.at("pMove").asDouble(), 1e-7);
    EXPECT_DOUBLE_EQ(points[1].config.at("pMove").asDouble(), 1e-6);
    EXPECT_DOUBLE_EQ(points[2].config.at("pMove").asDouble(), 1e-5);
    EXPECT_DOUBLE_EQ(points[3].config.at("pGate").asDouble(), 1e-4);
    EXPECT_DOUBLE_EQ(points[3].config.at("pMove").asDouble(), 1e-7);
    // The base rides along on every point.
    EXPECT_EQ(points[5].config.at("trials").asInt(), 1000);
    // The assignment records only the axis fields.
    EXPECT_FALSE(points[0].assignment.has("trials"));
    EXPECT_TRUE(points[0].assignment.has("pGate"));
}

TEST(SweepSpec, ZippedAxesAdvanceTogether)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "axes": [
        {"zip": [
          {"field": "arch", "values": ["qla", "gqla", "gqla"]},
          {"field": "generatorsPerSite", "values": [1, 2, 4]}
        ]},
        {"field": "workload", "values": ["qrca", "qft"]}
      ]
    })"));
    const std::vector<SweepPoint> points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    // (qla,1), (gqla,2), (gqla,4) each crossed with two workloads.
    EXPECT_EQ(points[0].config.at("arch").asString(), "qla");
    EXPECT_EQ(points[0].config.at("generatorsPerSite").asInt(), 1);
    EXPECT_EQ(points[0].config.at("workload").asString(), "qrca");
    EXPECT_EQ(points[1].config.at("workload").asString(), "qft");
    EXPECT_EQ(points[2].config.at("arch").asString(), "gqla");
    EXPECT_EQ(points[2].config.at("generatorsPerSite").asInt(), 2);
    EXPECT_EQ(points[4].config.at("generatorsPerSite").asInt(), 4);
}

TEST(SweepSpec, ZipLengthMismatchThrows)
{
    EXPECT_THROW(SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "axes": [
        {"zip": [
          {"field": "arch", "values": ["qla", "gqla"]},
          {"field": "generatorsPerSite", "values": [1, 2, 4]}
        ]}
      ]
    })")),
                 std::invalid_argument);
}

TEST(SweepSpec, GridsConcatenateAndMergeBases)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"bits": 8, "errors": {"pGate": 1e-4}},
      "grids": [
        {"axes": [{"field": "workload", "values": ["qrca"]}]},
        {"base": {"schedule": "arch", "errors": {"pMove": 1e-6}},
         "axes": [{"field": "workload",
                   "values": ["qrca", "qft"]}]}
      ]
    })"));
    const std::vector<SweepPoint> points = spec.expand();
    ASSERT_EQ(points.size(), 3u);
    EXPECT_FALSE(points[0].config.has("schedule"));
    EXPECT_EQ(points[1].config.at("schedule").asString(), "arch");
    // Nested objects merge key-by-key, not wholesale.
    EXPECT_DOUBLE_EQ(
        points[1].config.at("errors").at("pGate").asDouble(), 1e-4);
    EXPECT_DOUBLE_EQ(
        points[1].config.at("errors").at("pMove").asDouble(), 1e-6);
    EXPECT_EQ(points[2].config.at("bits").asInt(), 8);
}

TEST(SweepSpec, UnknownFieldListsValidFields)
{
    try {
        SweepSpec::fromJson(parse(R"({
          "runner": "experiment",
          "axes": [{"field": "pGait", "values": [1]}]
        })"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("pGait"), std::string::npos);
        EXPECT_NE(message.find("valid fields"), std::string::npos);
        EXPECT_NE(message.find("errors.pGate"), std::string::npos);
        EXPECT_NE(message.find("workload"), std::string::npos);
    }
}

TEST(SweepSpec, UnknownBaseKeyFailsFastToo)
{
    // A typo in the base must not silently sweep at the default
    // value; base keys get the same validation as axis fields.
    try {
        SweepSpec::fromJson(parse(R"({
          "runner": "mc-prep",
          "base": {"pgate": 1e-3},
          "axes": [{"field": "pMove", "values": [1e-6]}]
        })"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("pgate"), std::string::npos);
        EXPECT_NE(message.find("valid fields"), std::string::npos);
    }
    // Nested base objects validate by dotted path.
    EXPECT_THROW(SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"synth": {"maxSillables": 4}},
      "axes": [{"field": "bits", "values": [8]}]
    })")),
                 std::invalid_argument);
}

TEST(SweepSpec, UnknownRunnerListsRegisteredRunners)
{
    try {
        SweepSpec::fromJson(
            parse(R"({"runner": "quantum-vibes"})"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("quantum-vibes"), std::string::npos);
        EXPECT_NE(message.find("experiment"), std::string::npos);
        EXPECT_NE(message.find("mc-prep"), std::string::npos);
    }
}

TEST(SweepSpec, UnknownSpecOrGridKeysThrow)
{
    // "axis" instead of "axes" must not silently collapse the
    // sweep to a bare-base one-point run.
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"runner": "mc-prep",
                         "axis": [{"field": "pGate",
                                   "values": [1e-4]}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"grids": [{"axees": []}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(R"({"grids": [1]})")),
                 std::invalid_argument);
}

TEST(SweepSpec, MalformedAxesThrow)
{
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [{"values": [1]}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [{"field": "bits",
                          "values": []}]})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [1], "grids": []})")),
                 std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(parse(
                     R"({"axes": [], "grids": []})")),
                 std::invalid_argument);
}

TEST(SweepSpec, JsonRoundTrips)
{
    const Json doc = parse(R"({
      "name": "trip",
      "runner": "experiment",
      "base": {"bits": 8},
      "grids": [
        {"axes": [{"field": "workload", "values": ["qrca"]}]},
        {"base": {"schedule": "arch"},
         "axes": [{"zip": [
            {"field": "arch", "values": ["qla", "cqla"]},
            {"field": "cacheSlots", "values": [1, 24]}]}]}
      ]
    })");
    const SweepSpec spec = SweepSpec::fromJson(doc);
    const SweepSpec back = SweepSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.toJson(), spec.toJson());
    EXPECT_EQ(back.points(), spec.points());
}

TEST(SweepSpec, SetJsonPathCreatesNestedObjects)
{
    Json j = Json::object();
    setJsonPath(j, "errors.pGate", Json(1e-3));
    setJsonPath(j, "errors.pMove", Json(1e-5));
    setJsonPath(j, "bits", Json(16));
    EXPECT_DOUBLE_EQ(j.at("errors").at("pGate").asDouble(), 1e-3);
    EXPECT_DOUBLE_EQ(j.at("errors").at("pMove").asDouble(), 1e-5);
    EXPECT_EQ(j.at("bits").asInt(), 16);
}

// ---------------------------------------------------------------
// Config hash hooks
// ---------------------------------------------------------------

TEST(ConfigHash, DistinguishesConfigsAndIgnoresKeyOrder)
{
    ExperimentConfig a;
    ExperimentConfig b;
    EXPECT_EQ(a.toJson().hash(), b.toJson().hash());
    b.errors.pGate = 2e-4;
    EXPECT_NE(a.toJson().hash(), b.toJson().hash());

    // Json::hash is order-insensitive by construction (sorted
    // keys).
    EXPECT_EQ(parse(R"({"a": 1, "b": 2})").hash(),
              parse(R"({"b": 2, "a": 1})").hash());
    EXPECT_NE(parse(R"({"a": 1})").hash(), parse(R"({"a": 2})").hash());
}

TEST(ConfigHash, WorkloadKeyCoversOnlyWorkloadIdentity)
{
    ExperimentConfig a;
    ExperimentConfig b;
    b.schedule = ScheduleMode::Arch;
    b.errors.pGate = 9e-4;
    EXPECT_EQ(a.workloadKey(), b.workloadKey());
    b.params.bits = 12;
    EXPECT_NE(a.workloadKey(), b.workloadKey());
}

// ---------------------------------------------------------------
// Engine: memoization, determinism, error capture
// ---------------------------------------------------------------

/** A degenerate axis with repeated values: 4 points, 2 unique. */
SweepSpec
duplicateSpec()
{
    return SweepSpec::fromJson(parse(R"({
      "name": "dupes",
      "runner": "mc-prep",
      "base": {"trials": 20000, "seed": 7},
      "axes": [
        {"field": "pGate",
         "values": [1e-4, 3e-4, 1e-4, 3e-4]}
      ]
    })"));
}

TEST(SweepEngine, MemoizesDuplicatePointsByConfigHash)
{
    const SweepReport report = runSweep(duplicateSpec());
    EXPECT_EQ(report.points, 4u);
    EXPECT_EQ(report.cacheMisses, 2u);
    EXPECT_EQ(report.cacheHits, 2u);
    EXPECT_EQ(report.failed, 0u);

    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), 4u);
    // Duplicates share the hash and the full result.
    EXPECT_EQ(points.at(0).at("config_hash"),
              points.at(2).at("config_hash"));
    EXPECT_EQ(points.at(0).at("error_rate"),
              points.at(2).at("error_rate"));
    EXPECT_NE(points.at(0).at("config_hash"),
              points.at(1).at("config_hash"));
    // And the accounting lands in the document.
    EXPECT_EQ(report.doc.at("cache").at("hits").asInt(), 2);
    EXPECT_EQ(report.doc.at("cache").at("misses").asInt(), 2);
}

TEST(SweepEngine, AggregatedJsonIsThreadCountInvariant)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "name": "threads",
      "runner": "mc-prep",
      "base": {"trials": 50000, "seed": 11},
      "axes": [
        {"field": "strategy",
         "values": ["basic", "verify_and_correct"]},
        {"field": "pGate", "values": [1e-4, 3e-4, 1e-3]}
      ]
    })"));
    SweepOptions one;
    one.threads = 1;
    SweepOptions four;
    four.threads = 4;
    const std::string a = runSweep(spec, one).doc.dump();
    const std::string b = runSweep(spec, four).doc.dump();
    EXPECT_EQ(a, b);
}

TEST(SweepEngine, ExperimentSweepIsThreadCountInvariant)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "name": "exp-threads",
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 6,
               "synth": {"maxSyllables": 3}},
      "axes": [
        {"field": "schedule",
         "values": ["speed-of-data", "arch"]},
        {"field": "codeLevel", "values": [1, 2]}
      ]
    })"));
    SweepOptions one;
    one.threads = 1;
    SweepOptions four;
    four.threads = 4;
    const std::string a = runSweep(spec, one).doc.dump();
    const std::string b = runSweep(spec, four).doc.dump();
    EXPECT_EQ(a, b);
}

TEST(SweepEngine, PointErrorsAreCapturedNotFatal)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 1000},
      "axes": [
        {"field": "strategy", "values": ["basic", "bogus"]}
      ]
    })"));
    const SweepReport report = runSweep(spec);
    EXPECT_EQ(report.failed, 1u);
    const Json &points = report.doc.at("points");
    EXPECT_FALSE(points.at(0).has("error"));
    EXPECT_TRUE(points.at(1).has("error"));
    EXPECT_NE(points.at(1).at("error").asString().find("bogus"),
              std::string::npos);

    // A knob the arch model cannot honor fails its point only.
    const SweepSpec arch = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "chain", "bits": 4, "schedule": "arch",
               "arch": "fma"},
      "axes": [{"field": "areaBudget", "values": [3000, 0]}]
    })"));
    const SweepReport archReport = runSweep(arch);
    EXPECT_EQ(archReport.failed, 1u);
    const Json &archPoints = archReport.doc.at("points");
    EXPECT_FALSE(archPoints.at(0).has("error"));
    EXPECT_NE(
        archPoints.at(1).at("error").asString().find("areaBudget"),
        std::string::npos);
}

TEST(SweepEngine, BadWorkloadInputsFailTheirPointOnly)
{
    // Each bad point here used to end the whole process from a pool
    // thread: fatal() exited 1 and panic() aborted, so no document
    // was written.
    const char *base = R"("runner": "experiment",
      "base": {"workload": "qrca", "bits": 4,
               "synth": {"maxSyllables": 3}},)";
    const SweepSpec spec = SweepSpec::fromJson(parse(std::string("{")
        + base + R"(
      "grids": [
        {"axes": [{"field": "bits", "values": [4, 0, -3]}]},
        {"axes": [{"field": "synth.maxSyllables", "values": [4, 10]}]},
        {"base": {"bits": 0},
         "axes": [{"field": "workload",
                   "values": ["qcla", "qft", "chain", "ladder"]}]},
        {"base": {"workload": "ladder"},
         "axes": [{"field": "bits", "values": [1]}]}
      ]
    })"));
    const char *expected[] = {
        nullptr,
        "makeQrca: operand width must be >= 1, got 0",
        "makeQrca: operand width must be >= 1, got -3",
        nullptr,
        "FowlerSynth: maxSyllables must be in [1, 9]",
        "makeQcla: operand width must be >= 1, got 0",
        "makeQft: width must be >= 1, got 0",
        "makeChain: length must be positive, got 0",
        "makeLadder: need width >= 2 and layers >= 1, got 0x0",
        "makeLadder: need width >= 2 and layers >= 1, got 1x1",
    };
    SweepOptions options;
    options.threads = 4;
    const SweepReport report = runSweep(spec, options);
    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), std::size(expected));
    EXPECT_EQ(report.failed, std::size(expected) - 2);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (expected[i]) {
            EXPECT_EQ(points.at(i).getString("error", ""), expected[i])
                << "point " << i;
        } else {
            EXPECT_FALSE(points.at(i).has("error")) << "point " << i;
        }
    }

    // The good point is what it is in a sweep of its own.
    const SweepSpec alone = SweepSpec::fromJson(parse(std::string("{")
        + base + R"(
      "axes": [{"field": "bits", "values": [4]}]
    })"));
    EXPECT_EQ(points.at(0).dump(),
              runSweep(alone).doc.at("points").at(0).dump());
}

TEST(SweepEngine, ZeroCalibrationTrialsFailTheirPointOnly)
{
    // Calibrating from zero trials used to abort the process at code
    // level 2, and at level 1 to size the factories at the 100%
    // acceptance "measured" from no trials.
    const char *base = R"("runner": "experiment",
      "base": {"workload": "qrca", "bits": 4,
               "synth": {"maxSyllables": 3},
               "calibrateFactories": true},)";
    const SweepSpec spec = SweepSpec::fromJson(parse(std::string("{")
        + base + R"(
      "axes": [{"field": "codeLevel", "values": [1, 2]},
               {"field": "calibrationTrials", "values": [0, 64]}]
    })"));
    SweepOptions options;
    options.threads = 4;
    const SweepReport report = runSweep(spec, options);
    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(report.failed, 2u);
    for (std::size_t level = 1; level <= 2; ++level) {
        const Json &zero = points.at(2 * level - 2);
        const Json &good = points.at(2 * level - 1);
        EXPECT_EQ(zero.getString("error", ""),
                  "calibrationTrials must be >= 1 when "
                  "calibrateFactories is set, got 0")
            << "level " << level;
        EXPECT_FALSE(good.has("error")) << "level " << level;

        // The good point is what it is in a sweep of its own.
        const SweepSpec alone = SweepSpec::fromJson(
            parse(std::string("{") + base + R"(
          "axes": [{"field": "codeLevel", "values": [)"
                  + std::to_string(level) + R"(]},
                   {"field": "calibrationTrials", "values": [64]}]
        })"));
        EXPECT_EQ(good.dump(),
                  runSweep(alone).doc.at("points").at(0).dump())
            << "level " << level;
    }
}

TEST(SweepEngine, BadMcPrepIntegersFailTheirPointOnly)
{
    // These used to be cast without a range check: "trials": -1
    // wrapped to zero batches and a point claiming 1.8e19 trials,
    // and a maxFaults or wordsPerQubit past 32 bits ran truncated
    // under the value the spec gave.
    const char *base = R"("runner": "mc-prep",
      "base": {"trials": 2000, "seed": 3},)";
    const SweepSpec spec = SweepSpec::fromJson(parse(std::string("{")
        + base + R"(
      "grids": [
        {"axes": [{"field": "trials", "values": [2000, -1, 0]}]},
        {"base": {"sampler": "stratified", "trialsPerStratum": 200},
         "axes": [{"field": "maxFaults", "values": [4294967296]}]},
        {"axes": [{"field": "wordsPerQubit", "values": [4294967360]}]},
        {"base": {"sampler": "stratified"},
         "axes": [{"field": "trialsPerStratum", "values": [0]}]}
      ]
    })"));
    const char *expected[] = {
        nullptr,
        "config field \"trials\" = -1 is out of range",
        "config field \"trials\" must be >= 1",
        "config field \"maxFaults\" = 4294967296 is out of range",
        "config field \"wordsPerQubit\" = 4294967360 is out of range",
        "config field \"trialsPerStratum\" must be >= 1",
    };
    SweepOptions options;
    options.threads = 4;
    const SweepReport report = runSweep(spec, options);
    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), std::size(expected));
    ASSERT_EQ(report.failed, std::size(expected) - 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (expected[i]) {
            EXPECT_EQ(points.at(i).getString("error", ""), expected[i])
                << "point " << i;
        } else {
            EXPECT_FALSE(points.at(i).has("error")) << "point " << i;
        }
    }

    // The good point is what it is in a sweep of its own.
    const SweepSpec alone = SweepSpec::fromJson(parse(std::string("{")
        + base + R"(
      "axes": [{"field": "trials", "values": [2000]}]
    })"));
    EXPECT_EQ(points.at(0).dump(),
              runSweep(alone).doc.at("points").at(0).dump());

    // A stratum of 2^64 - 1 trials never finished, and no drain
    // could stop it: a sweep of its own, reached only once the
    // checks above hold.
    const SweepSpec endless = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"sampler": "stratified", "trialsPerStratum": -1},
      "axes": []
    })"));
    EXPECT_EQ(runSweep(endless).doc.at("points").at(0).getString(
                  "error", ""),
              "config field \"trialsPerStratum\" = -1 is out of range");
}

TEST(SweepEngine, ProgressReportsEveryPointOnce)
{
    std::size_t calls = 0;
    std::size_t cached = 0;
    std::size_t lastDone = 0;
    SweepOptions options;
    options.progress = [&](const SweepProgress &p) {
        ++calls;
        cached += p.cached ? 1 : 0;
        lastDone = p.done;
        EXPECT_EQ(p.total, 4u);
        ASSERT_NE(p.point, nullptr);
    };
    runSweep(duplicateSpec(), options);
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(cached, 2u);
    EXPECT_EQ(lastDone, 4u);
}

// ---------------------------------------------------------------
// Runners: parity with the direct engines
// ---------------------------------------------------------------

TEST(SweepRunners, McPrepPointMatchesDirectBatchSim)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 100000, "seed": 20080623,
               "strategy": "verify_and_correct",
               "pGate": 3e-4, "pMove": 1e-6}
    })"));
    const SweepReport report = runSweep(spec);
    ASSERT_EQ(report.points, 1u);
    const Json &point = report.doc.at("points").at(0);

    const MovementModel movement = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    ErrorParams errors;
    errors.pGate = 3e-4;
    BatchAncillaSim sim(errors, movement, 20080623);
    const PrepEstimate est =
        sim.estimate(ZeroPrepStrategy::VerifyAndCorrect, 100000);
    EXPECT_DOUBLE_EQ(point.at("error_rate").asDouble(),
                     est.errorRate());
    EXPECT_DOUBLE_EQ(point.at("verify_fail_rate").asDouble(),
                     est.discardRate());
    EXPECT_FALSE(point.at("paper_point").asBool());
}

TEST(SweepRunners, McPrepStratifiedPointMatchesDirectSampler)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"sampler": "stratified", "maxFaults": 3,
               "trialsPerStratum": 5000, "seed": 20080623,
               "strategy": "verify_and_correct",
               "pGate": 1e-5, "pMove": 1e-7}
    })"));
    const SweepReport report = runSweep(spec);
    ASSERT_EQ(report.points, 1u);
    const Json &point = report.doc.at("points").at(0);

    const MovementModel movement = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    ErrorParams errors;
    errors.pGate = 1e-5;
    errors.pMove = 1e-7;
    BatchAncillaSim sim(errors, movement, 20080623);
    ImportanceConfig config;
    config.maxFaults = 3;
    config.trialsPerStratum = 5000;
    const StratifiedEstimate est = sim.estimateStratified(
        ZeroPrepStrategy::VerifyAndCorrect, config);
    const Interval ci = est.errorInterval();
    EXPECT_DOUBLE_EQ(point.at("error_rate").asDouble(),
                     est.errorRate());
    EXPECT_DOUBLE_EQ(point.at("ci_lo").asDouble(), ci.lo);
    EXPECT_DOUBLE_EQ(point.at("ci_hi").asDouble(), ci.hi);
    EXPECT_EQ(point.at("gate_sites").asInt(),
              static_cast<std::int64_t>(est.gateSites));
    EXPECT_EQ(point.at("move_sites").asInt(),
              static_cast<std::int64_t>(est.moveSites));
    EXPECT_DOUBLE_EQ(point.at("truncated_prior").asDouble(),
                     est.truncatedPrior);
}

TEST(SweepRunners, McPrepForcedWidthMatchesAutoByteForByte)
{
    // Every SIMD width is bit-identical, so forcing one through
    // QC_FORCE_WIDTH must leave the whole document unchanged.
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 50000, "seed": 7,
               "strategy": "basic", "pGate": 1e-3}
    })"));
    const char *env = std::getenv("QC_FORCE_WIDTH");
    const std::string prior = env ? env : "";
    ASSERT_EQ(unsetenv("QC_FORCE_WIDTH"), 0);
    const std::string autoDoc = runSweep(spec).doc.dump();
    ASSERT_EQ(setenv("QC_FORCE_WIDTH", "64", 1), 0);
    const std::string forcedDoc = runSweep(spec).doc.dump();
    if (env)
        setenv("QC_FORCE_WIDTH", prior.c_str(), 1);
    else
        unsetenv("QC_FORCE_WIDTH");
    EXPECT_EQ(autoDoc, forcedDoc);
}

TEST(SweepRunners, McPrepRejectsUnknownSamplerAndWidth)
{
    // Per-point failures surface as an "error" key on the point,
    // not as an exception out of the engine.
    const SweepReport badSampler =
        runSweep(SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 10, "sampler": "metropolis"}
    })")));
    const Json &p0 = badSampler.doc.at("points").at(0);
    ASSERT_TRUE(p0.has("error"));
    EXPECT_NE(p0.at("error").asString().find("sampler"),
              std::string::npos);

    // The SIMD width never changes a result, so it is not a field
    // (QC_FORCE_WIDTH picks it): a spec naming one fails fast.
    try {
        SweepSpec::fromJson(parse(R"({
          "runner": "mc-prep",
          "base": {"trials": 10, "width": "64"}
        })"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("width"),
                  std::string::npos);
    }
}

TEST(SweepRunners, ExperimentPointMatchesRunExperiment)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 8,
               "synth": {"maxSyllables": 3}},
      "axes": [{"field": "codeLevel", "values": [1, 2]}]
    })"));
    const SweepReport report = runSweep(spec);
    const Json &points = report.doc.at("points");

    ExperimentConfig config;
    config.workload = "qrca";
    config.params.bits = 8;
    config.synth.maxSyllables = 3;
    for (std::size_t i = 0; i < 2; ++i) {
        config.codeLevel = static_cast<int>(i) + 1;
        const Result expected = runExperiment(config);
        const Json &point = points.at(i);
        EXPECT_DOUBLE_EQ(point.at("makespan_ms").asDouble(),
                         toMs(expected.makespan));
        EXPECT_DOUBLE_EQ(point.at("klops").asDouble(),
                         expected.klops());
        EXPECT_DOUBLE_EQ(point.at("factory_area").asDouble(),
                         expected.allocation.totalArea());
    }
}

TEST(SweepRunners, ZeroPerMsOfAverageThrottlesRelativeToWorkload)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 8,
               "synth": {"maxSyllables": 3},
               "schedule": "throttled"},
      "axes": [{"field": "zeroPerMsOfAverage",
                "values": [0.25, 100.0]}]
    })"));
    const SweepReport report = runSweep(spec);
    const Json &points = report.doc.at("points");
    const double starved =
        points.at(0).at("makespan_ms").asDouble();
    const double flooded =
        points.at(1).at("makespan_ms").asDouble();
    // The flooded run sits at the speed-of-data plateau; the
    // starved run pays for the supply gap.
    EXPECT_GT(starved, 3.0 * flooded);
    EXPECT_GT(points.at(0).at("slowdown").asDouble(), 3.0);
    EXPECT_NEAR(points.at(1).at("slowdown").asDouble(), 1.0, 0.35);
    EXPECT_GT(points.at(1).at("zero_supply_per_ms").asDouble(),
              points.at(0).at("zero_supply_per_ms").asDouble());
}

TEST(SweepRunners, ZeroPerMsOfAverageRejectsNonThrottledSchedule)
{
    // The fraction knob must not silently override a conflicting
    // schedule axis; the point records the error instead.
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 6,
               "synth": {"maxSyllables": 3},
               "zeroPerMsOfAverage": 0.5},
      "axes": [{"field": "schedule",
                "values": ["arch", "throttled"]}]
    })"));
    const SweepReport report = runSweep(spec);
    EXPECT_EQ(report.failed, 1u);
    const Json &points = report.doc.at("points");
    EXPECT_TRUE(points.at(0).has("error"));
    EXPECT_NE(points.at(0).at("error").asString().find("throttled"),
              std::string::npos);
    EXPECT_FALSE(points.at(1).has("error"));
}

// ---------------------------------------------------------------
// The result store is the checkpoint: a re-run against it executes
// only the points it lacks, and the document is byte-identical to
// a fresh single-shot run.
// ---------------------------------------------------------------

namespace store_specs {

const char *kHalf = R"({
  "name": "resume",
  "runner": "mc-prep",
  "base": {"trials": 20000, "seed": 7},
  "axes": [
    {"field": "strategy", "values": ["basic"]},
    {"field": "pGate", "values": [1e-4, 3e-4]}
  ]
})";

const char *kFull = R"({
  "name": "resume",
  "runner": "mc-prep",
  "base": {"trials": 20000, "seed": 7},
  "axes": [
    {"field": "strategy", "values": ["basic", "verify_only"]},
    {"field": "pGate", "values": [1e-4, 3e-4]}
  ]
})";

} // namespace store_specs

/** The engine's store contract in memory: keyed by (runner, full
 *  config), error results refused, thread-safe. */
class MemoryStore : public ResultCache
{
  public:
    bool fetch(const std::string &runner, const Json &config,
               Json &result) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(runner + '\n' + config.dump(0));
        if (it == entries_.end())
            return false;
        result = it->second;
        return true;
    }

    bool store(const std::string &runner, const Json &config,
               const Json &result) override
    {
        if (result.has("error"))
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.emplace(runner + '\n' + config.dump(0), result)
            .second;
    }

    std::size_t size()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

  private:
    std::mutex mutex_;
    std::map<std::string, Json> entries_;
};

SweepReport
runAgainst(const SweepSpec &spec, ResultCache &store, int threads = 2)
{
    SweepOptions options;
    options.threads = threads;
    options.hoard = &store;
    return runSweep(spec, options);
}

TEST(SweepStore, GrownSpecReRunExecutesOnlyNewPoints)
{
    // Extend a finished sweep: the first half of the grid ran as
    // its own sweep, the full grid re-runs against the same store.
    MemoryStore store;
    const SweepSpec half = SweepSpec::fromJson(parse(store_specs::kHalf));
    const SweepSpec full = SweepSpec::fromJson(parse(store_specs::kFull));
    runAgainst(half, store);

    const SweepReport grown = runAgainst(full, store);
    const SweepReport fresh = runSweep(full);
    EXPECT_EQ(grown.doc.dump(), fresh.doc.dump());
    EXPECT_EQ(grown.points, 4u);
    EXPECT_EQ(grown.hoardHits, 2u);
    EXPECT_EQ(grown.executed, 2u);
    EXPECT_EQ(grown.hoardStored, 2u);
    EXPECT_EQ(fresh.executed, 4u);
    EXPECT_EQ(grown.doc.at("schema_version").asInt(),
              kResultSchemaVersion);

    // And a second re-run executes nothing.
    const SweepReport warm = runAgainst(full, store);
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.hoardHits, 4u);
    EXPECT_EQ(warm.doc.dump(), fresh.doc.dump());
}

TEST(SweepStore, EveryTickedPointIsAlreadyStored)
{
    // Publish-before-tick: at every progress tick for an executed
    // point the store already holds it, so a crash right after the
    // K-th tick (qcarch's crash-at-point=K) leaves K points stored.
    MemoryStore store;
    SweepOptions options;
    options.threads = 1;
    options.hoard = &store;
    std::size_t ticks = 0;
    options.progress = [&](const SweepProgress &p) {
        EXPECT_EQ(store.size(), p.done);
        ++ticks;
    };
    const SweepReport report = runSweep(
        SweepSpec::fromJson(parse(store_specs::kFull)), options);
    EXPECT_EQ(ticks, report.points);
}

TEST(SweepStore, DrainedRunWritesNoDocumentAndReRunFinishes)
{
    // The SIGINT/SIGTERM path, minus the signal: stop after two
    // points. No partial document exists; the two finished points
    // are in the store, and re-running computes only the rest.
    const SweepSpec spec = SweepSpec::fromJson(parse(store_specs::kFull));
    const SweepReport fresh = runSweep(spec);

    MemoryStore store;
    std::size_t done = 0;
    SweepOptions options;
    options.threads = 1;
    options.hoard = &store;
    options.progress = [&](const SweepProgress &) { ++done; };
    options.stopRequested = [&] { return done >= 2; };
    const SweepReport drained = runSweep(spec, options);
    EXPECT_EQ(drained.interrupted, 2u);
    EXPECT_EQ(drained.executed, 2u);
    EXPECT_TRUE(drained.doc.isNull());
    EXPECT_EQ(store.size(), 2u);

    const SweepReport rerun = runAgainst(spec, store);
    EXPECT_EQ(rerun.hoardHits, 2u);
    EXPECT_EQ(rerun.executed, 2u);
    EXPECT_EQ(rerun.interrupted, 0u);
    EXPECT_EQ(rerun.doc.dump(), fresh.doc.dump());
}

TEST(SweepStore, AssignmentShapeChangesStillHit)
{
    // Same merged config, different axis assignment (the value
    // moved from an axis into the base): the store keys on the
    // config alone and the assembler lays out the assignment, so
    // the point is a hit and the document still matches a fresh
    // run of the reshaped spec byte for byte.
    const SweepSpec prior = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 20000, "seed": 7},
      "axes": [
        {"field": "strategy", "values": ["basic"]},
        {"field": "pGate", "values": [1e-4]}
      ]
    })"));
    const SweepSpec reshaped = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 20000, "seed": 7, "strategy": "basic"},
      "axes": [{"field": "pGate", "values": [1e-4]}]
    })"));
    MemoryStore store;
    runAgainst(prior, store);
    const SweepReport rerun = runAgainst(reshaped, store);
    EXPECT_EQ(rerun.hoardHits, 1u);
    EXPECT_EQ(rerun.executed, 0u);
    EXPECT_EQ(rerun.doc.dump(), runSweep(reshaped).doc.dump());
}

TEST(SweepStore, FailedPointsAreRetriedOnReRun)
{
    // A failed point is never stored, so it re-runs.
    const SweepSpec bad = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 1000},
      "axes": [{"field": "strategy",
                "values": ["basic", "bogus"]}]
    })"));
    MemoryStore store;
    const SweepReport broken = runAgainst(bad, store);
    ASSERT_EQ(broken.failed, 1u);
    EXPECT_EQ(store.size(), 1u);
    const SweepReport rerun = runAgainst(bad, store);
    EXPECT_EQ(rerun.hoardHits, 1u);
    EXPECT_EQ(rerun.executed, 1u); // the failed point re-ran
    EXPECT_EQ(rerun.failed, 1u);   // ...and failed again
    EXPECT_EQ(rerun.doc.dump(), broken.doc.dump());
}

/** A store whose every publish fails, like a full disk. */
class FullDiskStore : public ResultCache
{
  public:
    bool fetch(const std::string &, const Json &, Json &) override
    {
        return false;
    }
    bool store(const std::string &, const Json &,
               const Json &) override
    {
        throw std::runtime_error("No space left on device");
    }
};

TEST(SweepStore, FailedPublishKeepsThePointInTheDocument)
{
    // A publish that throws costs only that point's crash
    // durability: the sweep finishes, every point lands in the
    // document, and the failures are counted.
    const SweepSpec spec = SweepSpec::fromJson(parse(store_specs::kFull));
    FullDiskStore store;
    const SweepReport report = runAgainst(spec, store, 4);
    EXPECT_EQ(report.doc.dump(), runSweep(spec).doc.dump());
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.executed, 4u);
    EXPECT_EQ(report.hoardStored, 0u);
    EXPECT_EQ(report.hoardFailed, 4u);
    EXPECT_NE(report.hoardError.find("No space left"),
              std::string::npos);
}

/** A store shared with another process that holds the claim on one
 *  point: it refuses that claim, and after `publishAfter` refusals
 *  (0: never) publishes the point itself. */
class SharedStore : public MemoryStore
{
  public:
    SharedStore(Json held, Json result, int publishAfter)
        : held_(std::move(held)), result_(std::move(result)),
          publishAfter_(publishAfter)
    {
    }

    Claim claim(const std::string &runner, const Json &config) override
    {
        if (config != held_)
            return Claim::Won;
        if (++refusals == publishAfter_)
            store(runner, config, result_);
        return Claim::Held;
    }

    std::atomic<int> refusals{0};

  private:
    const Json held_;
    const Json result_;
    const int publishAfter_;
};

/** The stored result of point `index` of `spec`. */
Json
storedResult(const SweepSpec &spec, std::size_t index)
{
    MemoryStore reference;
    runAgainst(spec, reference);
    Json result;
    reference.fetch(spec.runner,
                    SweepPlan::expand(spec).points[index].config,
                    result);
    return result;
}

TEST(SweepStore, HeldPointIsRevisitedUntilItCanBeFetched)
{
    // Another process holds one point: the sweep finishes the rest,
    // then revisits that point until the holder's result is in the
    // store. It never computes the point itself.
    const SweepSpec spec = SweepSpec::fromJson(parse(store_specs::kFull));
    SharedStore store(SweepPlan::expand(spec).points[1].config,
                      storedResult(spec, 1), 2);
    const SweepReport report = runAgainst(spec, store);
    EXPECT_EQ(report.doc.dump(), runSweep(spec).doc.dump());
    EXPECT_EQ(store.refusals, 2);
    EXPECT_EQ(report.hoardHits, 1u);
    EXPECT_EQ(report.executed, 3u);
    EXPECT_EQ(report.hoardStored, 3u);
}

TEST(SweepStore, StopEndsTheRevisits)
{
    // A holder that never finishes keeps the sweep revisiting until
    // a stop request; the point counts as interrupted.
    const SweepSpec spec = SweepSpec::fromJson(parse(store_specs::kFull));
    SharedStore store(SweepPlan::expand(spec).points[0].config,
                      Json::object(), 0);
    SweepOptions options;
    options.hoard = &store;
    options.stopRequested = [&] { return store.refusals >= 3; };
    const SweepReport report = runSweep(spec, options);
    EXPECT_TRUE(report.doc.isNull());
    EXPECT_EQ(report.interrupted, 1u);
    EXPECT_EQ(report.executed, 3u);
}

TEST(SweepAssembler, DocumentRequiresEveryPoint)
{
    // No partial document: there is no stub format to emit.
    SweepAssembler assembler(
        SweepSpec::fromJson(parse(store_specs::kHalf)));
    ASSERT_EQ(assembler.pending().size(), 2u);
    assembler.setResult(0, parse(R"({"error_rate": 0.5})"), false);
    EXPECT_THROW(assembler.document(), std::logic_error);
    assembler.setResult(1, parse(R"({"error_rate": 0.25})"), false);
    EXPECT_TRUE(assembler.complete());
    EXPECT_EQ(assembler.document().at("points").size(), 2u);
}

TEST(SweepEngine, ZeroPointSpecsThrowInsteadOfEmittingNothing)
{
    SweepSpec empty;
    empty.runner = "mc-prep";
    EXPECT_THROW(runSweep(empty), std::invalid_argument);
}

TEST(SweepEngine, MoreThreadsThanPointsIsFine)
{
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "runner": "mc-prep",
      "base": {"trials": 5000, "seed": 3},
      "axes": [{"field": "pGate", "values": [1e-4, 3e-4]}]
    })"));
    SweepOptions narrow;
    narrow.threads = 1;
    SweepOptions wide;
    wide.threads = 64;
    const SweepReport a = runSweep(spec, narrow);
    const SweepReport b = runSweep(spec, wide);
    EXPECT_EQ(a.doc.dump(), b.doc.dump());
    EXPECT_EQ(b.failed, 0u);
}

// ---------------------------------------------------------------
// Const-shared-workload mode: one immutable (workload, graph,
// analytics memo) bundle across points, bit-identical to per-point
// construction.
// ---------------------------------------------------------------

TEST(SharedWorkload, SharedGraphResultsMatchPerPointBuilds)
{
    ExperimentConfig config;
    config.workload = "qrca";
    config.params.bits = 8;
    config.synth.maxSyllables = 3;

    FowlerSynth synth(config.synth);
    SharedWorkload shared = makeSharedWorkload(
        WorkloadRegistry::instance().build("qrca", synth,
                                           config.params));
    ASSERT_NE(shared.workload, nullptr);
    ASSERT_NE(shared.graph, nullptr);
    EXPECT_EQ(&shared.graph->circuit(),
              &shared.workload->lowered.circuit);

    for (auto schedule :
         {ScheduleMode::SpeedOfData, ScheduleMode::Arch}) {
        config.schedule = schedule;
        Experiment sharedMode(config, shared);
        Experiment fresh(config);
        EXPECT_EQ(sharedMode.run().toJson().dump(),
                  fresh.run().toJson().dump())
            << scheduleModeName(schedule);
    }
}

TEST(SharedWorkload, AnalyticsMemoKeysEveryInputAcrossThreads)
{
    // A throttled run reads every analytics field: the split, the
    // bandwidth and profile, the allocation and the unit
    // throughputs behind the default supply and utilization.
    ExperimentConfig base;
    base.workload = "qrca";
    base.params.bits = 4;
    base.schedule = ScheduleMode::Throttled;

    // Each variant differs from an earlier one, variants[from[i]], in
    // exactly one analytics input.
    std::vector<ExperimentConfig> variants = {base};
    std::vector<std::size_t> from = {0};
    const auto vary = [&](std::size_t origin, auto edit) {
        ExperimentConfig v = variants[origin];
        edit(v);
        variants.push_back(v);
        from.push_back(origin);
    };
    using C = ExperimentConfig;
    vary(0, [](C &v) { v.tech.t1q += 1000; });
    vary(0, [](C &v) { v.tech.t2q += 1000; });
    vary(0, [](C &v) { v.tech.tmeas += 1000; });
    vary(0, [](C &v) { v.tech.tprep += 1000; });
    vary(0, [](C &v) { v.tech.tmove += 1000; });
    vary(0, [](C &v) { v.tech.tturn += 1000; });
    vary(0, [](C &v) { v.codeLevel = 2; });
    vary(0, [](C &v) { v.demandBins = 7; });
    vary(0, [](C &v) {
        v.calibrateFactories = true;
        v.calibrationTrials = 4096;
    });
    const std::size_t calibrated = variants.size() - 1;
    vary(calibrated, [](C &v) { v.errors.pGate *= 3; });
    vary(calibrated, [](C &v) { v.errors.pMove = 1e-2; });
    vary(calibrated, [](C &v) { v.calibrationTrials = 8192; });

    std::vector<std::string> expected;
    for (const ExperimentConfig &v : variants)
        expected.push_back(runExperiment(v).toJson().dump());
    // Every input moves the result, so a memo that left one out of
    // its key would hand some variant another's analytics.
    for (std::size_t i = 1; i < variants.size(); ++i)
        EXPECT_NE(expected[i], expected[from[i]]) << "variant " << i;

    FowlerSynth synth(base.synth);
    const SharedWorkload shared = makeSharedWorkload(
        WorkloadRegistry::instance().build("qrca", synth,
                                           base.params));
    // Four threads walk the variants from different starting points,
    // so different keys are first requested, and awaited, at once.
    constexpr std::size_t kThreads = 4;
    const std::size_t n = variants.size();
    const std::size_t steps = 3 * n;
    const auto variantAt = [n](std::size_t t, std::size_t step) {
        return (step + t * n / kThreads) % n;
    };
    std::vector<std::vector<std::string>> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t step = 0; step < steps; ++step) {
                const ExperimentConfig &v = variants[variantAt(t, step)];
                got[t].push_back(
                    Experiment(v, shared).run().toJson().dump());
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t step = 0; step < steps; ++step) {
            const std::size_t i = variantAt(t, step);
            EXPECT_EQ(got[t][step], expected[i])
                << "thread " << t << ", variant " << i;
        }
    }

    // A bundle assembled without makeSharedWorkload gets a memo of
    // its own.
    const SharedWorkload bare{shared.workload, shared.graph, nullptr};
    EXPECT_EQ(Experiment(base, bare).run().toJson().dump(), expected[0]);
}

// ---------------------------------------------------------------
// Shipped specs (single source of truth for the benches)
// ---------------------------------------------------------------

TEST(ShippedSpecs, ParseAndExpandToExpectedCounts)
{
    const struct
    {
        const char *file;
        std::size_t points;
        const char *runner;
    } specs[] = {
        // 30-point (strategy, pGate, pMove) grid plus the 2-point
        // paper-point semantics comparison (Fig 4c ApplyFix).
        {"/fig4_grid.json", 32, "mc-prep"},
        {"/fig8_throughput.json", 30, "experiment"},
        {"/fig15_arch.json", 60, "experiment"},
        {"/level2_scaling.json", 12, "experiment"},
        {"/ci_smoke.json", 4, "experiment"},
    };
    for (const auto &s : specs) {
        const SweepSpec spec =
            SweepSpec::load(std::string(QC_SPEC_DIR) + s.file);
        EXPECT_EQ(spec.points(), s.points) << s.file;
        EXPECT_EQ(spec.runner, s.runner) << s.file;
        EXPECT_EQ(spec.expand().size(), s.points) << s.file;
    }
}

} // namespace
} // namespace qc
