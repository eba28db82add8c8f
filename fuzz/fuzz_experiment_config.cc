/**
 * @file
 * Fuzz ExperimentConfig::fromJson — the entry point `qcarch run`
 * hands every user config file to. A hostile document must either
 * throw std::invalid_argument or produce a config whose toJson()
 * is a fixed point: fromJson(toJson(c)) serializes identically.
 * (The config hash feeding the sweep memo and the hoard key is
 * Json::hash of that serialization, so the fixed point is what
 * keeps cache identities stable.) An accepted config also keeps
 * every integral number the document gave it: a value its field
 * cannot hold is rejected, never wrapped.
 */

#include <cmath>
#include <stdexcept>
#include <string>

#include "api/Experiment.hh"
#include "api/Json.hh"
#include "fuzz/FuzzUtil.hh"

namespace {

/** Each integral number in `in` reads back unchanged in `out`, the
 *  accepted config's toJson(), wherever `out` has the same key. */
void
assertIntegersKept(const qc::Json &in, const qc::Json &out)
{
    if (!in.isObject() || !out.isObject())
        return;
    for (const auto &[key, value] : in.items()) {
        const qc::Json *kept = out.find(key);
        if (!kept)
            continue;
        if (value.isNumber() && kept->isNumber()) {
            const double v = value.asDouble();
            QC_FUZZ_ASSERT(v != std::floor(v) || kept->asDouble() == v,
                           "an accepted integer field was wrapped");
        } else {
            assertIntegersKept(value, *kept);
        }
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    qc::Json doc;
    try {
        doc = qc::Json::parse(qcfuzz::toString(data, size));
    } catch (const std::invalid_argument &) {
        return 0;
    }
    qc::ExperimentConfig config;
    try {
        config = qc::ExperimentConfig::fromJson(doc);
    } catch (const std::invalid_argument &) {
        return 0; // rejected cleanly
    }
    assertIntegersKept(doc, config.toJson());
    const std::string once = config.toJson().dump(2);
    qc::ExperimentConfig again;
    try {
        again = qc::ExperimentConfig::fromJson(
            qc::Json::parse(once));
    } catch (const std::invalid_argument &) {
        QC_FUZZ_ASSERT(false, "toJson() of an accepted config was "
                              "rejected by fromJson()");
    }
    QC_FUZZ_ASSERT(again.toJson().dump(2) == once,
                   "config round-trip not a fixed point");
    return 0;
}
