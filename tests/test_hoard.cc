/**
 * @file
 * Tests for the hoard cache (src/hoard, docs/HOARD.md): the
 * cache-key policy (every ExperimentConfig field classified as
 * semantic or reporting-only, with property tests that
 * reporting-only changes hit and semantic changes miss), store
 * round trips, the corruption matrix (truncated / bit-flipped /
 * wrong-version / torn-write objects each quarantined and
 * transparently recomputed, a lost object recomputed, output
 * byte-identical to a cold run, a tampered result never replayed),
 * eviction order, idempotent duplicate publishes, and the claims
 * that let several sweeps split one store's points: the filesystem
 * lease primitive (exclusive acquisition, nonce-checked renewal,
 * wall-clock expiry, single-winner steal, a dead-owner fast path
 * that only trusts a pid on its own host), takeover of dead and
 * expired claims, drained sweeps that leave no claim behind, and
 * the fault injector's spec parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/wait.h>
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

/** The pid of a child that already exited and was reaped: a
 *  known-dead process on this host. */
int
deadPid()
{
    const pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(child, &status, 0);
    return static_cast<int>(child);
}

/** A lease as this process would write it. */
LeaseInfo
myLease()
{
    LeaseInfo mine;
    mine.host = Lease::hostName();
    mine.pid = static_cast<int>(::getpid());
    mine.nonce = Lease::makeNonce();
    mine.ttlSeconds = 30.0;
    return mine;
}

/** Lease files under a store's claims/ directory. */
std::size_t
claimFiles(const std::string &root)
{
    std::size_t count = 0;
    for (const auto &entry : fs::directory_iterator(root + "/claims"))
        count += entry.path().extension() == ".lease" ? 1 : 0;
    return count;
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
    // Every mc-prep field is kept, plus the runner's result version;
    // the paper runner has no fields, so it keeps the whole config.
    Json versioned = config;
    versioned.set("result_version", std::int64_t{2});
    EXPECT_EQ(hoardKeyConfig("mc-prep", config), versioned);
    Json paper = config;
    paper.set("result_version", std::int64_t{1});
    EXPECT_EQ(hoardKeyConfig("paper", config), paper);
    EXPECT_TRUE(hoardReportingOnlyFields("mc-prep").empty());
    Json changed = config;
    changed.set("trials", 2000);
    EXPECT_NE(hoardKeyHash("mc-prep", changed),
              hoardKeyHash("mc-prep", config));
    // The runner name is part of the identity.
    EXPECT_NE(hoardKeyHash("mc-prep", config),
              hoardKeyHash("experiment", config));
}

/** The mc-prep runner at result version 0: the code that filled a
 *  store before mc-prep had a version. */
class VersionZeroRunner : public SweepRunner
{
  public:
    explicit VersionZeroRunner(const SweepRunner &real) : real_(real) {}

    std::string name() const override { return real_.name(); }
    std::string
    description() const override
    {
        return real_.description();
    }
    const FieldSchema &schema() const override { return real_.schema(); }
    Json metadata() const override { return real_.metadata(); }
    Json
    runPoint(const Json &config, SweepContext &context) const override
    {
        return real_.runPoint(config, context);
    }

  private:
    const SweepRunner &real_;
};

TEST(HoardKey, ResultVersionMakesOlderObjectsStaleNotCorrupt)
{
    ScratchDir dir("qc_hoard_version");
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    SweepRunnerRegistry builtins;
    registerBuiltinSweepRunners(builtins);
    SweepReport old;
    {
        // Put the built-in runners back however the run ends.
        struct Restore
        {
            ~Restore()
            {
                registerBuiltinSweepRunners(
                    SweepRunnerRegistry::instance());
            }
        } restore;
        SweepRunnerRegistry::instance().add(
            "mc-prep", std::make_shared<const VersionZeroRunner>(
                           builtins.get("mc-prep")));
        old = hoardedRun(spec, dir.file("store"));
    }
    ASSERT_EQ(old.hoardStored, 4u);

    // The current version misses every object version 0 stored and
    // recomputes it.
    const Json cold = coldDocument(spec);
    const SweepReport current = hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(current.hoardHits, 0u);
    EXPECT_EQ(current.executed, 4u);
    EXPECT_EQ(current.doc.dump(), cold.dump());
    EXPECT_EQ(hoardedRun(spec, dir.file("store")).executed, 0u);

    // The old objects are stale, not corrupt: verify keeps them, and
    // only the new ones record the version in their key_config.
    HoardStore hoard(dir.file("store"));
    const HoardVerifyReport report = hoard.verify();
    EXPECT_EQ(report.objects, 8u);
    EXPECT_EQ(report.quarantined, 0u);
    const int version = builtins.get("mc-prep").resultVersion();
    ASSERT_NE(version, 0);
    std::size_t versioned = 0;
    for (const HoardObjectInfo &info : hoard.list()) {
        const Json object = Json::loadFile(info.path);
        versioned += object.at("key_config").getInt("result_version", 0)
            == version;
    }
    EXPECT_EQ(versioned, 4u);
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
    EXPECT_EQ(hoard.stat().getInt("objects", -1), 1);

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
    EXPECT_EQ(hoard.stat().getInt("objects", -1), 1);
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
    EXPECT_EQ(hoard.stat().getInt("objects", -1), 0);
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
    // The Monte Carlo grid, and an experiment grid whose points
    // share one workload across schedules and code levels.
    const char *const experimentSpec = R"({
      "name": "hoard_experiment",
      "runner": "experiment",
      "base": {"workload": "qrca", "bits": 8,
               "synth": {"maxSyllables": 3}},
      "axes": [
        {"field": "schedule", "values": ["speed-of-data", "arch"]},
        {"field": "codeLevel", "values": [1, 2]}
      ]
    })";
    for (const char *text : {kSpec, experimentSpec}) {
        SCOPED_TRACE(text);
        ScratchDir dir("qc_hoard_warm");
        const SweepSpec spec = SweepSpec::fromJson(parse(text));
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

TEST(HoardSweep, MistypedCalibrationGateFailsItsPointOnly)
{
    // The key policy reads calibrateFactories before the point runs,
    // outside the point's error capture. A non-bool there used to
    // throw out of the sweep: exit 1, no document, the store left
    // behind.
    ScratchDir dir("qc_hoard_gate");
    const char *base = R"("runner": "experiment",
      "base": {"workload": "qrca", "bits": 4,
               "synth": {"maxSyllables": 3}},)";
    const SweepSpec spec = SweepSpec::fromJson(parse(std::string("{")
        + base + R"(
      "axes": [{"field": "calibrateFactories",
                "values": [false, 1, "yes"]}]
    })"));
    const SweepReport report = hoardedRun(spec, dir.file("store"));
    const Json &points = report.doc.at("points");
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(report.failed, 2u);
    EXPECT_FALSE(points.at(0).has("error"));
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_NE(points.at(i).getString("error", "").find(
                      "\"calibrateFactories\""),
                  std::string::npos)
            << points.at(i).dump(0);
    }

    // The good point is what it is in a sweep of its own.
    const SweepSpec alone = SweepSpec::fromJson(parse(std::string("{")
        + base + R"(
      "axes": [{"field": "calibrateFactories", "values": [false]}]
    })"));
    EXPECT_EQ(points.at(0).dump(),
              coldDocument(alone).at("points").at(0).dump());
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

TEST(HoardCorruption, LostObjectIsRecomputedHarmlessly)
{
    ScratchDir dir("qc_hoard_lost");
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const Json cold = coldDocument(spec);
    ASSERT_EQ(hoardedRun(spec, dir.file("store")).hoardStored,
              4u);

    // Lose an object (an eviction by another process, a hand
    // cleanup): the store lists only what objects/ holds.
    HoardStore hoard(dir.file("store"));
    const std::vector<HoardObjectInfo> objects = hoard.list();
    ASSERT_EQ(objects.size(), 4u);
    fs::remove(objects[1].path);

    const HoardVerifyReport report = hoard.verify();
    EXPECT_EQ(report.objects, 3u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(hoard.stat().getInt("objects", -1), 3);

    // The sweep just recomputes the lost point and stays
    // byte-identical.
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
    EXPECT_FALSE(fs::exists(pathB));
    EXPECT_EQ(hoard.stat().getInt("quarantined_files", -1), 1);
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
// Lease primitive
// ---------------------------------------------------------------

TEST(Lease, AcquisitionIsExclusive)
{
    ScratchDir dir("qc_lease_excl");
    const std::string path = dir.file("a.lease");
    const LeaseInfo mine = myLease();
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    // The filesystem arbitrates: a second link onto the name loses.
    EXPECT_FALSE(Lease::tryAcquire(path, mine));

    LeaseInfo stored;
    ASSERT_TRUE(Lease::read(path, stored));
    EXPECT_EQ(stored.host, Lease::hostName());
    EXPECT_EQ(stored.pid, mine.pid);
    EXPECT_EQ(stored.nonce, mine.nonce);
    EXPECT_FALSE(stored.expired(nowEpochMs()));
    EXPECT_GT(stored.expiresMs, nowEpochMs() + 20000);
    // Acquisition leaves nothing but the lease itself.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir.path)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(Lease, NonceNamesTheHost)
{
    const std::string nonce = Lease::makeNonce();
    EXPECT_EQ(nonce.rfind(Lease::hostName() + "-", 0), 0u) << nonce;
    EXPECT_NE(Lease::makeNonce(), nonce);
}

TEST(Lease, RenewRequiresTheOwnersNonce)
{
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_lease_renew");
    const std::string path = dir.file("a.lease");
    const LeaseInfo mine = myLease();
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    LeaseInfo before;
    ASSERT_TRUE(Lease::read(path, before));

    clock.advanceMs(5000);
    ASSERT_TRUE(Lease::renew(path, mine));
    LeaseInfo after;
    ASSERT_TRUE(Lease::read(path, after));
    EXPECT_EQ(after.expiresMs, before.expiresMs + 5000);

    // A usurper's renewal must not resurrect its claim.
    LeaseInfo other = mine;
    other.nonce = Lease::makeNonce();
    EXPECT_FALSE(Lease::renew(path, other));
    LeaseInfo unchanged;
    ASSERT_TRUE(Lease::read(path, unchanged));
    EXPECT_EQ(unchanged.nonce, mine.nonce);
}

TEST(Lease, ExpiryIsWallClock)
{
    // Expiry is driven by the injectable wall clock, so the test
    // advances a fake clock past a realistic TTL instead of
    // shrinking the TTL and really sleeping.
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_lease_expire");
    const std::string path = dir.file("a.lease");
    ASSERT_TRUE(Lease::tryAcquire(path, myLease()));
    LeaseInfo stored;
    ASSERT_TRUE(Lease::read(path, stored));
    EXPECT_FALSE(stored.expired(nowEpochMs()));
    clock.advanceMs(29'999);
    EXPECT_FALSE(stored.expired(nowEpochMs()));
    clock.advanceMs(2);
    EXPECT_TRUE(stored.expired(nowEpochMs()));
    // Expired but the owner (this process) is alive: the dead-PID
    // fast path must NOT claim it is dead.
    EXPECT_TRUE(stored.ownerAlive());
}

TEST(Lease, ReleaseRequiresTheNonce)
{
    ScratchDir dir("qc_lease_release");
    const std::string path = dir.file("a.lease");
    const LeaseInfo mine = myLease();
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    EXPECT_FALSE(Lease::release(path, "someone-else"));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_TRUE(Lease::release(path, mine.nonce));
    EXPECT_FALSE(fs::exists(path));
}

TEST(Lease, StealHasExactlyOneWinner)
{
    ScratchDir dir("qc_lease_steal");
    const std::string path = dir.file("a.lease");
    LeaseInfo mine = myLease();
    mine.ttlSeconds = 0.01;
    ASSERT_TRUE(Lease::tryAcquire(path, mine));
    LeaseInfo stale;
    ASSERT_TRUE(Lease::read(path, stale));
    EXPECT_TRUE(Lease::steal(path, stale));
    EXPECT_FALSE(fs::exists(path));
    // The rename already happened; a second taker loses.
    EXPECT_FALSE(Lease::steal(path, stale));
    // And the lease is acquirable again.
    const LeaseInfo next = myLease();
    EXPECT_TRUE(Lease::tryAcquire(path, next));

    // A late taker that judged the old lease stale must not remove
    // the fresh one that replaced it: it is put back.
    EXPECT_FALSE(Lease::steal(path, stale));
    LeaseInfo fresh;
    ASSERT_TRUE(Lease::read(path, fresh));
    EXPECT_EQ(fresh.nonce, next.nonce);
}

TEST(Lease, DeadOwnerFastPath)
{
    LeaseInfo dead;
    dead.host = Lease::hostName();
    dead.pid = deadPid();
    dead.nonce = "gone";
    dead.expiresMs = nowEpochMs() + 60000; // TTL far from expiry
    EXPECT_FALSE(dead.ownerAlive());

    LeaseInfo alive = dead;
    alive.pid = static_cast<int>(::getpid());
    EXPECT_TRUE(alive.ownerAlive());
}

TEST(Lease, PidOnAnotherHostIsNeverProbed)
{
    // A pid that is dead here means nothing about a process on
    // another host sharing the filesystem: only expiry counts.
    LeaseInfo remote;
    remote.host = "not-" + Lease::hostName();
    remote.pid = deadPid();
    remote.nonce = "remote";
    EXPECT_TRUE(remote.ownerAlive());
    remote.host.clear(); // a lease that names no host at all
    EXPECT_TRUE(remote.ownerAlive());
}

TEST(Lease, TornLeaseFileReadsAsAbsent)
{
    ScratchDir dir("qc_lease_torn");
    const std::string path = dir.file("a.lease");
    writeAll(path, "{\"pid\": 12"); // damaged on disk
    LeaseInfo stored;
    EXPECT_FALSE(Lease::read(path, stored));
}

// ---------------------------------------------------------------
// Claims: sweeps sharing one store split its points
// ---------------------------------------------------------------

/** A test runner that counts how often each point runs and sleeps
 *  on it, so two sweeps overlap. */
class CountingRunner : public SweepRunner
{
  public:
    std::string name() const override { return "test-count"; }
    std::string description() const override
    {
        return "test-only: y = 3x, 40 ms per point, counted";
    }
    std::vector<std::string> fields() const override
    {
        return {"x"};
    }
    Json runPoint(const Json &config, SweepContext &) const override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++runs_[config.dump(0)];
        }
        Json result = Json::object();
        result.set("y", 3 * config.getDouble("x", 0.0));
        return result;
    }

    std::map<std::string, int> runs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return runs_;
    }

  private:
    mutable std::mutex mutex_;
    mutable std::map<std::string, int> runs_;
};

/** Registers a fresh CountingRunner as "test-count". */
std::shared_ptr<CountingRunner>
countingRunner()
{
    auto runner = std::make_shared<CountingRunner>();
    SweepRunnerRegistry::instance().add("test-count", runner);
    return runner;
}

const char *const kCountSpec = R"({
  "name": "claims",
  "runner": "test-count",
  "axes": [{"field": "x", "values": [1, 2, 3, 4, 5, 6, 7, 8]}]
})";

TEST(HoardClaims, TwoSweepsSplitTheirPointsAndWriteOneDocument)
{
    // Two sweeps over one store directory, each with its own
    // handle — the multi-process topology in-process, so TSan sees
    // the claim, heartbeat and publish paths. Every point runs
    // exactly once across both, and both documents equal the
    // single-process one.
    countingRunner();
    const SweepSpec spec = SweepSpec::fromJson(parse(kCountSpec));
    const std::string single = runSweep(spec).doc.dump();
    const auto runner = countingRunner(); // counts from here on
    ScratchDir dir("qc_hoard_claims");

    SweepReport reportA, reportB;
    std::thread racerA(
        [&] { reportA = hoardedRun(spec, dir.file("store")); });
    std::thread racerB(
        [&] { reportB = hoardedRun(spec, dir.file("store")); });
    racerA.join();
    racerB.join();
    EXPECT_EQ(reportA.doc.dump(), single);
    EXPECT_EQ(reportB.doc.dump(), single);
    EXPECT_EQ(reportA.executed + reportB.executed, 8u);
    EXPECT_EQ(reportA.hoardHits + reportB.hoardHits, 8u);
    EXPECT_EQ(reportA.claimsTakenOver + reportB.claimsTakenOver, 0u);
    const std::map<std::string, int> runs = runner->runs();
    EXPECT_EQ(runs.size(), 8u);
    for (const auto &[config, count] : runs)
        EXPECT_EQ(count, 1) << config;
    EXPECT_EQ(claimFiles(dir.file("store")), 0u);
    // The store ends up complete and valid; claims are not objects.
    HoardStore hoard(dir.file("store"));
    EXPECT_EQ(hoard.verify().quarantined, 0u);
    EXPECT_EQ(hoard.list().size(), 8u);
}

TEST(HoardClaims, ExpiredClaimIsTakenOverExactlyOnce)
{
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_hoard_expired");
    const Json config = parse(R"({"x": 1})");
    HoardStore holder(dir.file("store"));
    HoardStore a(dir.file("store"));
    HoardStore b(dir.file("store"));
    using Claim = ResultCache::Claim;
    ASSERT_EQ(holder.claim("test-count", config), Claim::Won);
    // A live, renewing-in-time holder keeps it.
    clock.advanceMs(29'000);
    EXPECT_EQ(a.claim("test-count", config), Claim::Held);
    // Past the expiry it goes to exactly one taker.
    clock.advanceMs(1'001 + 1'000);
    EXPECT_EQ(a.claim("test-count", config), Claim::TakenOver);
    EXPECT_EQ(b.claim("test-count", config), Claim::Held);
    // The old holder's release cannot drop the new holder's claim.
    holder.release("test-count", config);
    const std::string path = a.claimPath(
        HoardStore::keyFor("test-count", config));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_EQ(b.claim("test-count", config), Claim::Held);
    a.release("test-count", config);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(b.claim("test-count", config), Claim::Won);
}

TEST(HoardClaims, ExpiredClaimInASweepIsTakenOverOnce)
{
    // Two sweeps find one expired claim left by a third holder:
    // between them they take it over once, and compute every point
    // once.
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    countingRunner();
    const SweepSpec spec = SweepSpec::fromJson(parse(kCountSpec));
    const std::string single = runSweep(spec).doc.dump();
    const auto runner = countingRunner(); // counts from here on
    ScratchDir dir("qc_hoard_expired_sweep");
    HoardStore holder(dir.file("store"));
    ASSERT_EQ(holder.claim("test-count", parse(R"({"x": 4})")),
              ResultCache::Claim::Won);
    clock.advanceMs(31'000);

    SweepReport reportA, reportB;
    std::thread racerA(
        [&] { reportA = hoardedRun(spec, dir.file("store")); });
    std::thread racerB(
        [&] { reportB = hoardedRun(spec, dir.file("store")); });
    racerA.join();
    racerB.join();
    EXPECT_EQ(reportA.claimsTakenOver + reportB.claimsTakenOver, 1u);
    EXPECT_EQ(reportA.doc.dump(), single);
    EXPECT_EQ(reportB.doc.dump(), single);
    for (const auto &[config, count] : runner->runs())
        EXPECT_EQ(count, 1) << config;
}

TEST(HoardClaims, DeadHolderOnThisHostIsTakenOverAtOnce)
{
    // The holder died (a crash before its publish, say) with its
    // claim far from expiry: the next sweep takes it over without
    // waiting it out.
    ScratchDir dir("qc_hoard_dead");
    countingRunner();
    const SweepSpec spec = SweepSpec::fromJson(parse(kCountSpec));
    HoardStore store(dir.file("store"));
    LeaseInfo dead = myLease();
    dead.pid = deadPid();
    const SweepPlan plan = SweepPlan::expand(spec);
    ASSERT_TRUE(Lease::tryAcquire(
        store.claimPath(HoardStore::keyFor(spec.runner,
                                           plan.points[2].config)),
        dead));

    SweepOptions options;
    options.threads = 2;
    options.hoard = &store;
    const auto t0 = std::chrono::steady_clock::now();
    const SweepReport report = runSweep(spec, options);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
    EXPECT_EQ(report.claimsTakenOver, 1u);
    EXPECT_EQ(report.executed, 8u);
    EXPECT_EQ(report.doc.dump(), runSweep(spec).doc.dump());
    EXPECT_EQ(claimFiles(dir.file("store")), 0u);
}

TEST(HoardClaims, HolderOnAnotherHostWaitsOutItsExpiry)
{
    // Its pid is dead here, but that says nothing about a process
    // on another host: the claim stands until it expires.
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_hoard_remote");
    const Json config = parse(R"({"x": 1})");
    HoardStore store(dir.file("store"));
    LeaseInfo remote = myLease();
    remote.host = "not-" + Lease::hostName();
    remote.pid = deadPid();
    ASSERT_TRUE(Lease::tryAcquire(
        store.claimPath(HoardStore::keyFor("test-count", config)),
        remote));
    using Claim = ResultCache::Claim;
    EXPECT_EQ(store.claim("test-count", config), Claim::Held);
    clock.advanceMs(29'999);
    EXPECT_EQ(store.claim("test-count", config), Claim::Held);
    clock.advanceMs(2);
    EXPECT_EQ(store.claim("test-count", config), Claim::TakenOver);
}

TEST(HoardClaims, DamagedClaimIsTakenOver)
{
    ScratchDir dir("qc_hoard_damaged_claim");
    const Json config = parse(R"({"x": 1})");
    HoardStore store(dir.file("store"));
    writeAll(store.claimPath(HoardStore::keyFor("test-count", config)),
             "{\"pid\": 12");
    EXPECT_EQ(store.claim("test-count", config),
              ResultCache::Claim::TakenOver);
}

TEST(HoardClaims, StaleHeartbeatFaultLetsALiveClaimExpire)
{
    // The fault writes the first claim to expire in about a second,
    // never renews it, and stalls until someone takes it over.
    FakeWallClock clock;
    ScopedWallClock scoped(clock);
    ScratchDir dir("qc_hoard_stale");
    const Json config = parse(R"({"x": 1})");
    HoardStore stale(dir.file("store"),
                     FaultInjector::parse("stale-heartbeat"));
    HoardStore taker(dir.file("store"));
    const std::string path =
        taker.claimPath(HoardStore::keyFor("test-count", config));
    std::atomic<bool> stalled{true};
    std::thread holder([&] {
        EXPECT_EQ(stale.claim("test-count", config),
                  ResultCache::Claim::Won);
        stalled = false;
    });
    LeaseInfo lease;
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((!Lease::read(path, lease) || lease.ttlSeconds != 1.0)
           && std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(lease.ttlSeconds, 1.0);
    EXPECT_TRUE(stalled);
    EXPECT_EQ(taker.claim("test-count", config),
              ResultCache::Claim::Held);
    clock.advanceMs(1'001);
    EXPECT_EQ(taker.claim("test-count", config),
              ResultCache::Claim::TakenOver);
    holder.join();
    // Only the first claim goes stale.
    EXPECT_EQ(stale.claim("test-count", parse(R"({"x": 2})")),
              ResultCache::Claim::Won);
}

TEST(HoardClaims, DrainedSweepLeavesNoClaimsAndReRunFinishes)
{
    // The SIGINT/SIGTERM path: the stop flag the signal handler
    // sets goes up after three points. In-flight points finish and
    // release their claims, no document is written, and the re-run
    // computes only the rest.
    countingRunner();
    const SweepSpec spec = SweepSpec::fromJson(parse(kCountSpec));
    const std::string single = runSweep(spec).doc.dump();
    ScratchDir dir("qc_hoard_drain");
    std::atomic<std::size_t> done{0};
    SweepReport drained;
    {
        HoardStore store(dir.file("store"));
        SweepOptions options;
        options.threads = 2;
        options.hoard = &store;
        options.progress = [&](const SweepProgress &) { ++done; };
        options.stopRequested = [&] { return done >= 3; };
        drained = runSweep(spec, options);
        EXPECT_EQ(claimFiles(dir.file("store")), 0u);
    }
    EXPECT_TRUE(drained.doc.isNull());
    EXPECT_GT(drained.interrupted, 0u);
    const SweepReport rerun = hoardedRun(spec, dir.file("store"));
    EXPECT_EQ(rerun.hoardHits, 8u - drained.interrupted);
    EXPECT_EQ(rerun.executed, drained.interrupted);
    EXPECT_EQ(rerun.doc.dump(), single);
}

// ---------------------------------------------------------------
// FaultInjector parsing
// ---------------------------------------------------------------

TEST(FaultInjector, ParsesEveryDocumentedSpec)
{
    EXPECT_FALSE(FaultInjector::parse("").armed());
    EXPECT_TRUE(FaultInjector::parse("stale-heartbeat")
                    .is("stale-heartbeat"));
    EXPECT_TRUE(FaultInjector::parse("crash-before-hoard-publish")
                    .is("crash-before-hoard-publish"));
    EXPECT_TRUE(FaultInjector::parse("crash-after-hoard-publish")
                    .is("crash-after-hoard-publish"));
    const FaultInjector slow = FaultInjector::parse("slow-point=75");
    EXPECT_TRUE(slow.is("slow-point"));
    EXPECT_EQ(slow.param(), 75);
    const FaultInjector at = FaultInjector::parse("crash-at-point=2");
    EXPECT_TRUE(at.is("crash-at-point"));
    EXPECT_EQ(at.param(), 2);
}

TEST(FaultInjector, RejectsMalformedSpecsListingValidOnes)
{
    const auto expectThrows = [](const std::string &spec) {
        try {
            FaultInjector::parse(spec);
            FAIL() << spec << " should have thrown";
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find("slow-point"),
                      std::string::npos)
                << "error should list the valid specs: "
                << error.what();
        }
    };
    expectThrows("rm-rf");                 // unknown kind
    expectThrows("stale-heartbeat=3");     // takes no parameter
    expectThrows("slow-point");            // needs a parameter
    expectThrows("slow-point=fast");       // non-numeric
    expectThrows("crash-at-point=-1");     // negative
    // The shard-marker faults went with the marker protocol.
    expectThrows("crash-before-commit");
    expectThrows("torn-marker");
    expectThrows("slow-worker=5");
}

TEST(FaultInjector, DisarmedInjectorNeverFires)
{
    const FaultInjector none;
    EXPECT_FALSE(none.armed());
    none.fire("crash-after-hoard-publish"); // must not exit the run
    none.fireAtPoint(0);
    none.maybeSleep();
    // An armed injector only fires its own kind.
    FaultInjector::parse("crash-after-hoard-publish")
        .fire("crash-before-hoard-publish");
    FaultInjector::parse("crash-at-point=5").fireAtPoint(4);
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

    const Json stat = hoard.stat();
    EXPECT_EQ(stat.getInt("objects", -1), 2);
    EXPECT_EQ(stat.getInt("hoard_version", -1),
              HoardStore::kStoreVersion);
    EXPECT_GT(stat.getInt("bytes", 0), 0);
    EXPECT_EQ(stat.at("runners").getInt("mc-prep", 0), 1);
    EXPECT_EQ(stat.at("runners").getInt("experiment", 0), 1);
    EXPECT_EQ(stat.getInt("quarantined_files", -1), 0);
}

} // namespace
} // namespace qc
