/**
 * @file
 * Mutation-robustness property tests: take a byte-exact valid
 * artifact, apply every single-byte mutation, and require the
 * reader to uphold its integrity contract on each mutant.
 *
 *  - Hoard objects: for every mutant of a stored object file,
 *    fetch() either returns the original result byte-identical
 *    (the mutation hit a byte the digest/key checks ignore) or
 *    misses with the mutant quarantined out of the object path —
 *    never a third outcome, and never a silently different
 *    result.
 *  - Swept results: for every mutant of an object a sweep
 *    published, a re-run of the sweep either hits it with the
 *    original result or quarantines the mutant and recomputes the
 *    point — and the document stays byte-identical to a fresh run
 *    either way.
 *
 * These complement the corruption matrix in test_hoard.cc: that
 * enumerates known damage modes, this sweeps the full single-byte
 * neighborhood so a future parser "fix" that opens a partial-merge
 * or silent-corruption window fails loudly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/Qc.hh"
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

/** The two single-byte substitutions tried at every offset: a
 *  low-bit flip (digit/letter neighbors, the classic disk flip)
 *  and a high-bit flip (ASCII -> non-ASCII, breaks tokens). */
const unsigned char kFlips[] = {0x01, 0x80};

// ---------------------------------------------------------------
// Hoard objects
// ---------------------------------------------------------------

TEST(MutationRobustness, HoardObjectEveryByteMutation)
{
    ScratchDir dir("qc_mut_hoard");
    const std::string root = dir.file("store");
    const Json config = parse(R"({"trials": 1000, "seed": 7})");
    const Json result =
        parse(R"({"rate": 0.125, "trials": 1000})");
    {
        HoardStore hoard(root);
        ASSERT_TRUE(hoard.store("mc-prep", config, result));
    }
    const std::string objectPath =
        HoardStore(root).objectPath(
            HoardStore::keyFor("mc-prep", config));
    const std::string original = readAll(objectPath);
    ASSERT_FALSE(original.empty());

    std::size_t hits = 0, quarantined = 0;
    for (std::size_t at = 0; at < original.size(); ++at) {
        for (unsigned char flip : kFlips) {
            std::string mutant = original;
            mutant[at] = static_cast<char>(
                static_cast<unsigned char>(mutant[at]) ^ flip);
            fs::create_directories(
                fs::path(objectPath).parent_path());
            writeAll(objectPath, mutant);

            HoardStore hoard(root);
            Json fetched;
            if (hoard.fetch("mc-prep", config, fetched)) {
                ++hits;
                EXPECT_EQ(fetched.dump(), result.dump())
                    << "byte " << at << " ^ " << int(flip)
                    << ": fetch hit with a DIFFERENT result";
            } else {
                ++quarantined;
                EXPECT_FALSE(fs::exists(objectPath))
                    << "byte " << at << " ^ " << int(flip)
                    << ": miss left the mutant in place instead "
                       "of quarantining it";
            }
        }
    }
    // The sweep must actually bite: a mutant surviving every
    // check with a byte-identical payload is possible (e.g. a
    // flip inside a field no check covers is not), but the vast
    // majority must be caught.
    EXPECT_GT(quarantined, 0u);
    SCOPED_TRACE("hits=" + std::to_string(hits));

    // Healed store: restoring the original bytes fetches again.
    fs::create_directories(fs::path(objectPath).parent_path());
    writeAll(objectPath, original);
    HoardStore healed(root);
    Json fetched;
    ASSERT_TRUE(healed.fetch("mc-prep", config, fetched));
    EXPECT_EQ(fetched.dump(), result.dump());
}

// ---------------------------------------------------------------
// Swept results
// ---------------------------------------------------------------

/** A deterministic, instant runner: the property under test is
 *  the store path, so recomputes should cost nothing. */
class EchoRunner : public SweepRunner
{
  public:
    std::string name() const override { return "test-echo"; }
    std::string description() const override
    {
        return "test-only: y = 2x";
    }
    std::vector<std::string> fields() const override
    {
        return {"x"};
    }
    Json runPoint(const Json &config, SweepContext &) const override
    {
        Json result = Json::object();
        const Json *x = config.find("x");
        result.set("y", 2 * (x ? x->asDouble() : 0.0));
        return result;
    }
};

/** 4-point spec; a sweep publishes every point, then one of those
 *  objects is mutated byte by byte. */
const char *const kSpec = R"({
  "name": "mutation_sweep",
  "runner": "test-echo",
  "axes": [{"field": "x", "values": [1, 2, 3, 4]}]
})";

/** One sweep against the store at `root`, through its own handle. */
SweepReport
sweepInto(const SweepSpec &spec, const std::string &root)
{
    HoardStore store(root);
    SweepOptions options;
    options.hoard = &store;
    return runSweep(spec, options);
}

TEST(MutationRobustness, SweptObjectEveryByteMutation)
{
    SweepRunnerRegistry::instance().add(
        "test-echo", std::make_shared<EchoRunner>());
    const SweepSpec spec = SweepSpec::fromJson(parse(kSpec));
    const std::string golden = runSweep(spec).doc.dump();
    ScratchDir dir("qc_mut_sweep");
    const std::string root = dir.file("store");
    const SweepReport first = sweepInto(spec, root);
    ASSERT_EQ(first.executed, 4u);
    ASSERT_EQ(first.doc.dump(), golden);

    const SweepPlan plan = SweepPlan::expand(spec);
    const std::string objectPath = HoardStore(root).objectPath(
        HoardStore::keyFor(spec.runner, plan.points[0].config));
    const std::string original = readAll(objectPath);
    ASSERT_FALSE(original.empty());

    std::size_t hits = 0, recomputed = 0;
    for (std::size_t at = 0; at < original.size(); ++at) {
        std::string mutant = original;
        mutant[at] = static_cast<char>(
            static_cast<unsigned char>(mutant[at]) ^ 0x01);
        fs::create_directories(fs::path(objectPath).parent_path());
        writeAll(objectPath, mutant);

        // The re-run fetches the mutant: either it validates (and
        // then must carry the original result) or it is quarantined
        // and the point recomputed.
        const SweepReport report = sweepInto(spec, root);
        EXPECT_EQ(report.doc.dump(), golden)
            << "byte " << at << ": document differs";
        if (report.hoardHits == 4) {
            ++hits;
            EXPECT_EQ(readAll(objectPath), mutant) << "byte " << at;
        } else {
            ++recomputed;
            EXPECT_EQ(report.hoardHits, 3u) << "byte " << at;
            EXPECT_EQ(report.executed, 1u) << "byte " << at;
            EXPECT_NE(readAll(objectPath), mutant)
                << "byte " << at
                << ": a rejected mutant stayed on the fetch path";
        }
    }
    // Both arms must be exercised for the property to mean
    // anything: a flip inside the publish stamp is not covered by
    // the digest (hit), most break the JSON, the digest or the key
    // binding (quarantine + recompute).
    EXPECT_GT(hits, 0u);
    EXPECT_GT(recomputed, 0u);
    // Every rejected mutant went to quarantine, not oblivion.
    std::size_t quarantined = 0;
    for (const auto &entry :
         fs::directory_iterator(root + "/quarantine"))
        quarantined += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(quarantined, recomputed);
    SCOPED_TRACE("hits=" + std::to_string(hits));
}

} // namespace
} // namespace qc
