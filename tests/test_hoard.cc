/**
 * @file
 * Tests for the hoard cache (src/hoard, docs/HOARD.md): the
 * cache-key policy (every ExperimentConfig field classified as
 * semantic or reporting-only, with property tests that
 * reporting-only changes hit and semantic changes miss), store
 * round trips, the corruption matrix (truncated / bit-flipped /
 * wrong-version / orphaned-index / torn-write objects each
 * quarantined and transparently recomputed, output byte-identical
 * to a cold run, a tampered result never replayed), eviction
 * order, concurrent sweeps sharing one store, and idempotent
 * duplicate publishes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/Qc.hh"
#include "common/Clock.hh"
#include "common/DurableFile.hh"
#include "hoard/Hoard.hh"
#include "sweep/Sweep.hh"

namespace qc {
namespace {

namespace fs = std::filesystem;

Json
parse(const std::string &text)
{
    return Json::parse(text);
}

/** A fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + name + "-"
               + std::to_string(::getpid()))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    std::string file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/** A 4-point mc-prep spec small enough for fast integration
 *  runs. */
const char *const kSpec = R"({
  "name": "hoard_test",
  "runner": "mc-prep",
  "base": {"trials": 20000, "seed": 11},
  "axes": [
    {"field": "strategy", "values": ["basic", "verify_and_correct"]},
    {"field": "pGate", "values": [1e-4, 1e-3]}
  ]
})";

/** Cold-run `spec` without a hoard: the reference document every
 *  hoard-assisted run must reproduce byte for byte. */
Json
coldDocument(const SweepSpec &spec)
{
    SweepOptions options;
    options.threads = 2;
    return runSweep(spec, options).doc;
}

/** Run `spec` against the store at `root`. */
SweepReport
hoardedRun(const SweepSpec &spec, const std::string &root,
           int threads = 2)
{
    HoardStore hoard(root);
    SweepOptions options;
    options.threads = threads;
    options.hoard = &hoard;
    return runSweep(spec, options);
}

// ---------------------------------------------------------------
// Key policy: classification of every ExperimentConfig field
// ---------------------------------------------------------------

/** Dotted leaf paths of a config JSON ("errors.pGate", ...). */
void
leafPaths(const Json &value, const std::string &prefix,
          std::vector<std::string> &out)
{
    if (value.isObject()) {
        for (const auto &[key, child] : value.items()) {
            leafPaths(child,
                      prefix.empty() ? key : prefix + "." + key,
                      out);
        }
        return;
    }
    out.push_back(prefix);
}

/** Look up / overwrite a dotted path in a config JSON. */
const Json &
atPath(const Json &config, const std::string &path)
{
    const Json *node = &config;
    std::size_t start = 0;
    for (std::size_t dot = path.find('.');
         dot != std::string::npos;
         start = dot + 1, dot = path.find('.', start))
        node = &node->at(path.substr(start, dot - start));
    return node->at(path.substr(start));
}

void
setPath(Json &config, const std::string &path, Json value)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        config.set(path, std::move(value));
        return;
    }
    const std::string head = path.substr(0, dot);
    Json child =
        config.has(head) ? config.at(head) : Json::object();
    setPath(child, path.substr(dot + 1), std::move(value));
    config.set(head, std::move(child));
}

/** A value guaranteed to differ from the field's current one (the
 *  key policy never validates values, so it need not be a *legal*
 *  setting). */
Json
differentValue(const Json &current)
{
    if (current.isBool())
        return Json(!current.asBool());
    if (current.isNumber())
        return Json(current.asDouble() + 1.0);
    if (current.isString())
        return Json(current.asString() + "_changed");
    return Json(std::string("changed"));
}

/**
 * THE CLASSIFICATION. Every field the experiment runner sweeps
 * must appear in exactly one of these two sets; a field added to
 * the runner (or to ExperimentConfig::toJson) without being
 * classified here fails EveryExperimentFieldIsClassified, which is
 * the point — deciding whether a new knob identifies a result is
 * not optional.
 */
const std::set<std::string> kReportingOnly = {
    // Shapes only the demand-profile report, which summaryJson()
    // (the stored result) does not include.
    "demandBins",
    // Read only by the factory-calibration pass; reporting-only
    // iff calibrateFactories is off (the policy keeps it in the
    // key when calibration is on — see the property tests).
    "calibrationTrials",
};

const std::set<std::string> kSemantic = {
    "arch",
    "areaBudget",
    "bits",
    "cacheSlots",
    "calibrateFactories",
    "codeLevel",
    "errors.pGate",
    "errors.pMove",
    "generatorsPerSite",
    "lowering.maxRotK",
    "pi8PerMs",
    "qft.maxK",
    "qft.withSwaps",
    "schedule",
    "synth.maxError",
    "synth.maxSyllables",
    "synth.pureHT",
    "synth.tCostWeight",
    "tech.t1q_ns",
    "tech.t2q_ns",
    "tech.tmeas_ns",
    "tech.tmove_ns",
    "tech.tprep_ns",
    "tech.tturn_ns",
    "teleport_ns",
    "timeLimit_ns",
    "workload",
    "zeroPerMs",
    "zeroPerMsOfAverage",
};

TEST(HoardKey, EveryExperimentFieldIsClassified)
{
    // The policy's own list must agree with the classification.
    std::set<std::string> policy;
    for (const std::string &field :
         hoardReportingOnlyFields("experiment"))
        policy.insert(field);
    EXPECT_EQ(policy, kReportingOnly);

    // Every sweepable runner field is classified exactly once.
    const std::vector<std::string> fields =
        SweepRunnerRegistry::instance().get("experiment").fields();
    for (const std::string &field : fields) {
        const bool reporting = kReportingOnly.count(field) > 0;
        const bool semantic = kSemantic.count(field) > 0;
        EXPECT_TRUE(reporting || semantic)
            << "unclassified runner field \"" << field
            << "\": decide whether it identifies a result and add "
               "it to kSemantic or kReportingOnly in "
               "tests/test_hoard.cc (and, if reporting-only, to "
               "hoardReportingOnlyFields)";
        EXPECT_FALSE(reporting && semantic)
            << "field \"" << field << "\" classified twice";
    }

    // And nothing in the classification is stale.
    const std::set<std::string> known(fields.begin(), fields.end());
    for (const std::string &field : kSemantic)
        EXPECT_TRUE(known.count(field) > 0)
            << "kSemantic names unknown field \"" << field << "\"";
    for (const std::string &field : kReportingOnly)
        EXPECT_TRUE(known.count(field) > 0)
            << "kReportingOnly names unknown field \"" << field
            << "\"";

    // Every config-JSON leaf is a runner field (a field added to
    // ExperimentConfig::toJson but not to fields() would dodge
    // both the sweeper and this classification).
    std::vector<std::string> leaves;
    leafPaths(ExperimentConfig().toJson(), "", leaves);
    for (const std::string &leaf : leaves)
        EXPECT_TRUE(known.count(leaf) > 0)
            << "ExperimentConfig::toJson leaf \"" << leaf
            << "\" is not a sweepable runner field";
}

TEST(HoardKey, SemanticFieldChangesMiss)
{
    const Json base = ExperimentConfig().toJson();
    const std::string baseKey = hoardKeyHash("experiment", base);
    for (const std::string &field : kSemantic) {
        if (field == "zeroPerMsOfAverage")
            continue; // runner knob, not a toJson leaf (below)
        Json changed = base;
        setPath(changed, field,
                differentValue(atPath(base, field)));
        EXPECT_NE(hoardKeyHash("experiment", changed), baseKey)
            << "semantic field \"" << field
            << "\" did not change the hoard key";
    }
    // zeroPerMsOfAverage arrives only through sweep axes; unknown
    // fields are conservatively semantic, so it must miss too.
    Json fraction = base;
    fraction.set("zeroPerMsOfAverage", 0.5);
    EXPECT_NE(hoardKeyHash("experiment", fraction), baseKey);
}

TEST(HoardKey, ReportingOnlyFieldChangesHit)
{
    Json base = ExperimentConfig().toJson();
    ASSERT_FALSE(base.getBool("calibrateFactories", false));
    const std::string baseKey = hoardKeyHash("experiment", base);
    for (const std::string &field : kReportingOnly) {
        Json changed = base;
        setPath(changed, field,
                differentValue(atPath(base, field)));
        EXPECT_EQ(hoardKeyHash("experiment", changed), baseKey)
            << "reporting-only field \"" << field
            << "\" changed the hoard key";
        EXPECT_EQ(hoardKeyConfig("experiment", changed),
                  hoardKeyConfig("experiment", base));
    }
    // Dropping a reporting-only field entirely is also a hit.
    Json stripped = Json::object();
    for (const auto &[key, value] : base.items()) {
        if (kReportingOnly.count(key) == 0)
            stripped.set(key, value);
    }
    EXPECT_EQ(hoardKeyHash("experiment", stripped), baseKey);
}

TEST(HoardKey, CalibrationTrialsAreSemanticWhenCalibrating)
{
    Json base = ExperimentConfig().toJson();
    base.set("calibrateFactories", true);
    Json changed = base;
    changed.set("calibrationTrials",
                base.getInt("calibrationTrials", 0) + 100);
    // With the calibration pass on, the trial count shapes the
    // calibrated factory rates — it must be part of the key.
    EXPECT_NE(hoardKeyHash("experiment", changed),
              hoardKeyHash("experiment", base));
}

TEST(HoardKey, OtherRunnersUseTheIdentityPolicy)
{
    const Json config =
        parse(R"({"trials": 1000, "seed": 7, "pGate": 1e-4})");
    EXPECT_EQ(hoardKeyConfig("mc-prep", config), config);
    EXPECT_TRUE(hoardReportingOnlyFields("mc-prep").empty());
    Json changed = config;
    changed.set("trials", 2000);
    EXPECT_NE(hoardKeyHash("mc-prep", changed),
              hoardKeyHash("mc-prep", config));
    // The runner name is part of the identity.
    EXPECT_NE(hoardKeyHash("mc-prep", config),
              hoardKeyHash("experiment", config));
}

TEST(HoardKey, ReportingOnlyChangesProduceIdenticalResults)
{
    // The soundness claim behind the policy, checked against the
    // real runner: varying the reporting-only fields leaves the
    // stored result (the runner's metrics JSON) byte-identical.
    const Json base = parse(R"({
      "workload": "qrca", "bits": 6,
      "synth": {"maxSyllables": 3}
    })");
    const SweepRunner &runner =
        SweepRunnerRegistry::instance().get("experiment");
    SweepContext context;
    const std::string reference =
        runner.runPoint(base, context).dump();

    Json rebinned = base;
    rebinned.set("demandBins", 7);
    EXPECT_EQ(runner.runPoint(rebinned, context).dump(),
              reference);

    Json retrialed = base;
    retrialed.set("calibrationTrials", 123456);
    EXPECT_EQ(runner.runPoint(retrialed, context).dump(),
              reference);
}

// ---------------------------------------------------------------
// Store round trips
// ---------------------------------------------------------------

TEST(HoardStore, StoreFetchRoundTrip)
{
    ScratchDir dir("qc_hoard_rt");
    HoardStore hoard(dir.file("store"));
    const Json config = parse(R"({"trials": 1000, "seed": 7})");
    const Json result =
        parse(R"({"rate": 0.125, "trials": 1000})");

    Json missed;
    EXPECT_FALSE(hoard.fetch("mc-prep", config, missed));
    EXPECT_TRUE(hoard.store("mc-prep", config, result));
    Json fetched;
    ASSERT_TRUE(hoard.fetch("mc-prep", config, fetched));
    EXPECT_EQ(fetched.dump(), result.dump());

    const HoardCounters counters = hoard.counters();
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.stores, 1u);

    // A second open of the same directory sees the object.
    HoardStore reopened(dir.file("store"));
    Json again;
    ASSERT_TRUE(reopened.fetch("mc-prep", config, again));
    EXPECT_EQ(again.dump(), result.dump());
}

TEST(HoardStore, DuplicatePublishIsIdempotent)
{
    ScratchDir dir("qc_hoard_dup");
    HoardStore hoard(dir.file("store"));
    const Json config = parse(R"({"trials": 1000, "seed": 7})");
    const Json result = parse(R"({"rate": 0.125})");
    ASSERT_TRUE(hoard.store("mc-prep", config, result));
    const std::string path = hoard.objectPath(
        HoardStore::keyFor("mc-prep", config));
    const std::string before = readAll(path);

    // Same publish again — from this handle and from a second one
    // (a concurrent sweep's view of the same store).
    EXPECT_FALSE(hoard.store("mc-prep", config, result));
    HoardStore other(dir.file("store"));
    EXPECT_FALSE(other.store("mc-prep", config, result));
    EXPECT_EQ(readAll(path), before);
    EXPECT_EQ(hoard.counters().duplicates, 1u);
    EXPECT_EQ(other.counters().duplicates, 1u);
}

TEST(HoardStore, ErrorResultsAreNeverStored)
{
    ScratchDir dir("qc_hoard_err");
    HoardStore hoard(dir.file("store"));
    const Json config = parse(R"({"trials": 1000})");
    EXPECT_FALSE(hoard.store(
        "mc-prep", config, parse(R"({"error": "boom"})")));
    Json fetched;
    EXPECT_FALSE(hoard.fetch("mc-prep", config, fetched));
    EXPECT_EQ(hoard.counters().stores, 0u);
}

TEST(HoardStore, WrongStoreVersionMarkerThrows)
{
    ScratchDir dir("qc_hoard_ver");
    const std::string root = dir.file("store");
    fs::create_directories(root);
    writeAll(root + "/hoard.json", "{\"hoard_version\": 99}\n");
    EXPECT_THROW(HoardStore{root}, std::invalid_argument);
}

// ---------------------------------------------------------------
// Sweep integration: warm runs execute nothing, bytes identical
// ---------------------------------------------------------------

TEST(HoardSweep, WarmRunExecutesZeroPointsByteIdentical)
{
    ScratchDir dir("qc_hoard_warm");
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json cold = coldDocument(spec);

    const SweepReport first =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(first.executed, 4u);
    EXPECT_EQ(first.hoardHits, 0u);
    EXPECT_EQ(first.hoardStored, 4u);
    EXPECT_EQ(first.doc.dump(), cold.dump());

    const SweepReport second =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.hoardHits, 4u);
    EXPECT_EQ(second.hoardStored, 0u);
    EXPECT_EQ(second.doc.dump(), cold.dump());
}

TEST(HoardSweep, CompatiblePointsReuseAcrossSpecVariants)
{
    // The key policy pays off across *different* specs: a sweep
    // whose base changes only reporting-only fields hits every
    // stored point.
    ScratchDir dir("qc_hoard_variant");
    const Json specJson = parse(R"({
      "name": "variant_a",
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 6,
               "synth": {"maxSyllables": 3}, "demandBins": 40},
      "axes": [{"field": "codeLevel", "values": [1, 2]}]
    })");
    const SweepSpec specA = SweepSpec::fromJson(specJson);
    const SweepReport first =
        hoardedRun(specA, dir.file("store"));
    EXPECT_EQ(first.hoardStored, 2u);

    Json variant = specJson;
    variant.set("name", "variant_b");
    Json variantBase = specJson.at("base");
    variantBase.set("demandBins", 7);
    variantBase.set("calibrationTrials", 999);
    variant.set("base", variantBase);
    const SweepSpec specB = SweepSpec::fromJson(variant);

    const SweepReport second =
        hoardedRun(specB, dir.file("store"));
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.hoardHits, 2u);
    // And the hits are byte-identical to specB's own cold run.
    EXPECT_EQ(second.doc.dump(), coldDocument(specB).dump());

    // A semantic base change misses: nothing is wrongly reused.
    Json shifted = specJson;
    Json shiftedBase = specJson.at("base");
    shiftedBase.set("bits", 7);
    shifted.set("base", shiftedBase);
    const SweepReport third = hoardedRun(
        SweepSpec::fromJson(shifted), dir.file("store"));
    EXPECT_EQ(third.hoardHits, 0u);
    EXPECT_EQ(third.executed, 2u);
}

TEST(HoardSweep, FailedPointsAreNotCached)
{
    ScratchDir dir("qc_hoard_fail");
    const SweepSpec spec = SweepSpec::fromJson(parse(R"({
      "name": "hoard_fail",
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 6,
               "synth": {"maxSyllables": 3}},
      "axes": [{"field": "workload",
                "values": ["qrca", "no_such_workload"]}]
    })"));
    const SweepReport first =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(first.failed, 1u);
    EXPECT_EQ(first.hoardStored, 1u); // only the good point

    // The failed point re-runs on the warm pass (and fails again,
    // identically); the good one hits.
    const SweepReport second =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(second.hoardHits, 1u);
    EXPECT_EQ(second.executed, 1u);
    EXPECT_EQ(second.doc.dump(), first.doc.dump());
}

// ---------------------------------------------------------------
// Corruption matrix: every damage mode quarantines + recomputes
// ---------------------------------------------------------------

/** Populate a store from `kSpec`, damage one object with
 *  `corrupt`, then warm-run and require transparent recovery:
 *  exactly one recompute, output byte-identical, object
 *  quarantined (and the store healed for the next pass). */
void
expectQuarantineAndRecompute(
    const std::string &name,
    const std::function<void(const std::string &objectPath)>
        &corrupt)
{
    SCOPED_TRACE(name);
    ScratchDir dir("qc_hoard_corrupt");
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json cold = coldDocument(spec);
    ASSERT_EQ(hoardedRun(spec, dir.file("store")).hoardStored,
              4u);

    HoardStore hoard(dir.file("store"));
    const std::vector<HoardObjectInfo> objects = hoard.list();
    ASSERT_EQ(objects.size(), 4u);
    corrupt(objects[0].path);

    const SweepReport warm =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(warm.hoardHits, 3u);
    EXPECT_EQ(warm.executed, 1u);
    EXPECT_EQ(warm.doc.dump(), cold.dump());

    // The bad object went to quarantine, not oblivion...
    std::size_t quarantined = 0;
    for (const auto &entry : fs::directory_iterator(
             dir.file("store") + "/quarantine"))
        quarantined += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(quarantined, 1u);

    // ...and the recompute healed the store: fully warm again.
    const SweepReport healed =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(healed.hoardHits, 4u);
    EXPECT_EQ(healed.executed, 0u);
    EXPECT_EQ(healed.doc.dump(), cold.dump());
}

TEST(HoardCorruption, TruncatedObjectRecomputes)
{
    expectQuarantineAndRecompute(
        "truncated", [](const std::string &path) {
            const std::string content = readAll(path);
            writeAll(path, content.substr(0, content.size() / 2));
        });
}

TEST(HoardCorruption, BitFlippedPayloadFailsDigest)
{
    expectQuarantineAndRecompute(
        "bit-flip", [](const std::string &path) {
            // Valid JSON, correct shape — but the payload no
            // longer matches the digest.
            Json object = Json::loadFile(path);
            Json result = object.at("result");
            result.set("rate",
                       result.getDouble("rate", 0.0) + 1e-9);
            object.set("result", result);
            object.saveFile(path);
        });
}

TEST(HoardCorruption, WrongObjectStoreVersionRecomputes)
{
    expectQuarantineAndRecompute(
        "wrong-version", [](const std::string &path) {
            Json object = Json::loadFile(path);
            object.set("store_version",
                       HoardStore::kStoreVersion + 1);
            object.saveFile(path);
        });
}

TEST(HoardCorruption, TornWriteRecomputes)
{
    expectQuarantineAndRecompute(
        "torn-write", [](const std::string &path) {
            // A torn commit as writeFileTorn models it: the
            // rename happened, the data only half made it.
            const std::string content = readAll(path);
            writeFileTorn(path, content, content.size() / 3);
        });
}

TEST(HoardCorruption, OrphanedIndexEntryIsPrunedHarmlessly)
{
    ScratchDir dir("qc_hoard_orphan");
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json cold = coldDocument(spec);
    ASSERT_EQ(hoardedRun(spec, dir.file("store")).hoardStored,
              4u);

    HoardStore hoard(dir.file("store"));
    EXPECT_EQ(hoard.verify().orphanedIndexEntries, 0u);
    // Lose an object the index still lists (a crash between an
    // eviction and its index rewrite).
    const std::vector<HoardObjectInfo> objects = hoard.list();
    ASSERT_EQ(objects.size(), 4u);
    fs::remove(objects[1].path);

    const HoardVerifyReport report = hoard.verify();
    EXPECT_EQ(report.objects, 3u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(report.orphanedIndexEntries, 1u);
    // Pruned: a second scan is clean.
    EXPECT_EQ(hoard.verify().orphanedIndexEntries, 0u);

    // The index never gates fetches — the sweep just recomputes
    // the lost point and stays byte-identical.
    const SweepReport warm =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(warm.hoardHits, 3u);
    EXPECT_EQ(warm.executed, 1u);
    EXPECT_EQ(warm.doc.dump(), cold.dump());
}

TEST(HoardCorruption, VerifyFindsSeededBadObject)
{
    ScratchDir dir("qc_hoard_verify");
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    ASSERT_EQ(hoardedRun(spec, dir.file("store")).hoardStored,
              4u);

    HoardStore hoard(dir.file("store"));
    const std::vector<HoardObjectInfo> objects = hoard.list();
    Json object = Json::loadFile(objects[2].path);
    object.set("digest", std::string(16, '0'));
    object.saveFile(objects[2].path);

    const HoardVerifyReport report = hoard.verify();
    EXPECT_EQ(report.objects, 4u);
    EXPECT_EQ(report.ok, 3u);
    EXPECT_EQ(report.quarantined, 1u);
    // Quarantine keeps the evidence; the scan is then clean.
    EXPECT_FALSE(fs::exists(objects[2].path));
    EXPECT_EQ(hoard.verify().quarantined, 0u);
}

TEST(HoardCorruption, ObjectRenamedOntoWrongKeyIsRejected)
{
    // A copied/renamed object passes its digest check but not the
    // name==hash(key_config) check; both fetch and verify reject.
    ScratchDir dir("qc_hoard_rename");
    HoardStore hoard(dir.file("store"));
    const Json configA = parse(R"({"trials": 1000, "seed": 1})");
    const Json configB = parse(R"({"trials": 1000, "seed": 2})");
    ASSERT_TRUE(hoard.store("mc-prep", configA,
                            parse(R"({"rate": 0.5})")));
    const std::string pathB = hoard.objectPath(
        HoardStore::keyFor("mc-prep", configB));
    fs::create_directories(fs::path(pathB).parent_path());
    fs::copy_file(hoard.objectPath(
                      HoardStore::keyFor("mc-prep", configA)),
                  pathB);

    Json fetched;
    EXPECT_FALSE(hoard.fetch("mc-prep", configB, fetched));
    EXPECT_EQ(hoard.counters().quarantined, 1u);
    // The legitimate object is untouched.
    ASSERT_TRUE(hoard.fetch("mc-prep", configA, fetched));
}

TEST(HoardCorruption, TamperedMakespanIsQuarantinedNotReplayed)
{
    // A killed `qcarch sweep specs/ci_smoke.json --out out.json`
    // leaves its finished points in the private store
    // out.json.hoard/. Double one stored makespan_ms — a hand edit
    // that keeps the object well-formed — and re-run: the digest
    // no longer matches, so the object is quarantined and the point
    // recomputed. The doubled value never reaches the document.
    ScratchDir dir("qc_hoard_tamper");
    const SweepSpec spec = SweepSpec::load(std::string(QC_SPEC_DIR)
                                           + "/ci_smoke.json");
    const std::string root = dir.file("out.json.hoard");
    const SweepReport cold = hoardedRun(spec, root);
    ASSERT_EQ(cold.hoardStored, 4u);

    HoardStore hoard(root);
    const std::vector<HoardObjectInfo> objects = hoard.list();
    ASSERT_EQ(objects.size(), 4u);
    Json object = Json::loadFile(objects[0].path);
    Json result = object.at("result");
    result.set("makespan_ms",
               2 * result.at("makespan_ms").asDouble());
    object.set("result", result);
    object.saveFile(objects[0].path);

    const SweepReport rerun = hoardedRun(spec, root);
    EXPECT_EQ(rerun.hoardHits, 3u);
    EXPECT_EQ(rerun.executed, 1u);
    EXPECT_EQ(rerun.doc.dump(), cold.doc.dump());
    EXPECT_FALSE(fs::is_empty(root + "/quarantine"));
}

// ---------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------

TEST(HoardGc, EvictsOldestFirstByAgeThenSize)
{
    FakeWallClock clock(1700000000000);
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_hoard_gc");
    HoardStore hoard(dir.file("store"));
    const Json result = parse(R"({"rate": 0.125})");
    const Json c1 = parse(R"({"trials": 1000, "seed": 1})");
    const Json c2 = parse(R"({"trials": 1000, "seed": 2})");
    const Json c3 = parse(R"({"trials": 1000, "seed": 3})");
    ASSERT_TRUE(hoard.store("mc-prep", c1, result));
    clock.advanceMs(10 * 60 * 1000);
    ASSERT_TRUE(hoard.store("mc-prep", c2, result));
    clock.advanceMs(10 * 60 * 1000);
    ASSERT_TRUE(hoard.store("mc-prep", c3, result));

    // Age bound: 15 minutes. Only c1 (20 minutes old) falls.
    const HoardGcReport byAge =
        hoard.gc(0, 15.0 / (24.0 * 60.0));
    EXPECT_EQ(byAge.evicted, 1u);
    EXPECT_EQ(byAge.kept, 2u);
    Json fetched;
    EXPECT_FALSE(hoard.fetch("mc-prep", c1, fetched));
    EXPECT_TRUE(hoard.fetch("mc-prep", c2, fetched));
    EXPECT_TRUE(hoard.fetch("mc-prep", c3, fetched));

    // Size bound: one byte under the total evicts exactly the
    // oldest survivor (c2) — eviction is oldest-publish-first.
    const HoardGcReport bySize =
        hoard.gc(byAge.keptBytes - 1, 0);
    EXPECT_EQ(bySize.evicted, 1u);
    EXPECT_EQ(bySize.kept, 1u);
    EXPECT_FALSE(hoard.fetch("mc-prep", c2, fetched));
    EXPECT_TRUE(hoard.fetch("mc-prep", c3, fetched));
}

TEST(HoardGc, SweepsLeftoverPublishTemps)
{
    ScratchDir dir("qc_hoard_temps");
    HoardStore hoard(dir.file("store"));
    ASSERT_TRUE(hoard.store("mc-prep",
                            parse(R"({"trials": 1000})"),
                            parse(R"({"rate": 0.125})")));
    // A crashed publish's leftovers: durable temp + torn temp.
    const std::string objects = dir.file("store") + "/objects";
    fs::create_directories(objects + "/ab");
    writeAll(objects + "/ab/deadbeef.json.partial-123", "{}");
    fs::create_directories(objects + "/cd");
    writeAll(objects + "/cd/feedface.json.tmp-456", "{\"x\"");

    // Invisible to readers and to verify...
    EXPECT_EQ(hoard.verify().objects, 1u);
    // ...and swept by gc without touching live objects.
    const HoardGcReport report = hoard.gc(0, 0);
    EXPECT_EQ(report.tempsRemoved, 2u);
    EXPECT_EQ(report.kept, 1u);
    Json fetched;
    EXPECT_TRUE(hoard.fetch(
        "mc-prep", parse(R"({"trials": 1000})"), fetched));
}

// ---------------------------------------------------------------
// Concurrency: sweeps sharing one store
// ---------------------------------------------------------------

TEST(HoardConcurrency, TwoSweepsShareOneStore)
{
    // Two sweeps race over the same fresh store, each with its own
    // handle (the multi-process topology in-process, so TSan sees
    // the threaded read-through and publish paths). Both must come
    // out byte-identical to the cold document, and the store must
    // end up fully warm.
    ScratchDir dir("qc_hoard_race");
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json cold = coldDocument(spec);

    Json docA, docB;
    std::thread racerA([&] {
        docA = hoardedRun(spec, dir.file("store"), 2).doc;
    });
    std::thread racerB([&] {
        docB = hoardedRun(spec, dir.file("store"), 2).doc;
    });
    racerA.join();
    racerB.join();
    EXPECT_EQ(docA.dump(), cold.dump());
    EXPECT_EQ(docB.dump(), cold.dump());

    const SweepReport warm =
        hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.hoardHits, 4u);
    EXPECT_EQ(warm.doc.dump(), cold.dump());

    HoardStore hoard(dir.file("store"));
    EXPECT_EQ(hoard.verify().quarantined, 0u);
    EXPECT_EQ(hoard.list().size(), 4u);
}

// ---------------------------------------------------------------
// Stat
// ---------------------------------------------------------------

TEST(HoardStore, StatCountsObjectsBytesAndQuarantine)
{
    ScratchDir dir("qc_hoard_stat");
    HoardStore hoard(dir.file("store"));
    ASSERT_TRUE(hoard.store("mc-prep",
                            parse(R"({"trials": 1000})"),
                            parse(R"({"rate": 0.125})")));
    ASSERT_TRUE(hoard.store("experiment",
                            parse(R"({"workload": "qrca"})"),
                            parse(R"({"klops": 1.0})")));
    hoard.verify(); // builds the index

    const Json stat = hoard.stat();
    EXPECT_EQ(stat.getInt("objects", -1), 2);
    EXPECT_EQ(stat.getInt("index_entries", -1), 2);
    EXPECT_EQ(stat.getInt("hoard_version", -1),
              HoardStore::kStoreVersion);
    EXPECT_GT(stat.getInt("bytes", 0), 0);
    EXPECT_EQ(stat.at("runners").getInt("mc-prep", 0), 1);
    EXPECT_EQ(stat.at("runners").getInt("experiment", 0), 1);
    EXPECT_EQ(stat.getInt("quarantined_files", -1), 0);
}

} // namespace
} // namespace qc
