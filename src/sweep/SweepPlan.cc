#include "sweep/SweepPlan.hh"

#include <cstdio>
#include <map>
#include <stdexcept>

namespace qc {

std::string
hexConfigHash(std::uint64_t hash)
{
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(hash));
    return out;
}

SweepPlan
SweepPlan::expand(const SweepSpec &spec)
{
    SweepPlan plan;
    plan.points = spec.expand();
    if (plan.points.empty()) {
        // A zero-point sweep (a programmatic spec with no grids)
        // would emit a vacuous document; refuse loudly instead.
        throw std::invalid_argument(
            "sweep spec \"" + spec.name
            + "\" expands to zero points; give it at least one "
              "grid (axes may be empty for a one-point sweep)");
    }

    // Per-point config dedup: duplicate configurations (overlapping
    // grids, degenerate axes) execute once; the rest are cache
    // hits. The dedup keys on the full canonical dump — the 64-bit
    // hash is reported per point but never trusted for equality, so
    // a hash collision cannot alias two configs. The hit/miss split
    // is a function of the point list alone, so it is deterministic
    // across thread counts and across processes.
    plan.hashes.resize(plan.points.size());
    plan.canonical.resize(plan.points.size());
    std::map<std::string, std::size_t> first;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        plan.hashes[i] = plan.points[i].config.hash();
        auto [it, inserted] =
            first.emplace(plan.points[i].config.dump(0), i);
        plan.canonical[i] = it->second;
        if (inserted)
            plan.unique.push_back(i);
    }
    return plan;
}

SweepAssembler::SweepAssembler(const SweepSpec &spec)
    : spec_(spec),
      runner_(&SweepRunnerRegistry::instance().get(spec.runner)),
      plan_(SweepPlan::expand(spec))
{
    results_.resize(plan_.points.size());
    haveResult_.assign(plan_.points.size(), 0);
    resultFailed_.assign(plan_.points.size(), 0);
    pendingCount_ = plan_.unique.size();
}

std::vector<std::size_t>
SweepAssembler::pending() const
{
    std::vector<std::size_t> out;
    for (std::size_t index : plan_.unique) {
        if (!haveResult_[index])
            out.push_back(index);
    }
    return out;
}

bool
SweepAssembler::setResult(std::size_t canonicalIndex, Json result,
                          bool failed)
{
    if (canonicalIndex >= plan_.points.size()
        || plan_.canonical[canonicalIndex] != canonicalIndex) {
        throw std::invalid_argument(
            "setResult: " + std::to_string(canonicalIndex)
            + " is not a canonical point index");
    }
    if (haveResult_[canonicalIndex])
        return false;
    results_[canonicalIndex] = std::move(result);
    haveResult_[canonicalIndex] = 1;
    resultFailed_[canonicalIndex] = failed ? 1 : 0;
    --pendingCount_;
    return true;
}

std::size_t
SweepAssembler::failedPoints() const
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < plan_.points.size(); ++i)
        failed += resultFailed_[plan_.canonical[i]];
    return failed;
}

Json
SweepAssembler::document() const
{
    if (!complete()) {
        throw std::logic_error(
            "sweep document requested with "
            + std::to_string(pendingCount_)
            + " unique point(s) still pending");
    }
    // One flat object per point — the axis assignment first, then
    // the runner's metrics (runner keys win on collision, e.g.
    // "trials" rounded up to a full batch).
    Json pointsJson = Json::array();
    for (std::size_t i = 0; i < plan_.points.size(); ++i) {
        const Json &result = results_[plan_.canonical[i]];
        Json point = Json::object();
        for (const auto &[field, value] :
             plan_.points[i].assignment.items())
            point.set(field, value);
        if (result.isObject()) {
            for (const auto &[key, value] : result.items())
                point.set(key, value);
        }
        point.set("config_hash", hexConfigHash(plan_.hashes[i]));
        pointsJson.push(point);
    }

    Json doc = Json::object();
    doc.set("schema_version", kResultSchemaVersion);
    doc.set("sweep", spec_.name);
    doc.set("runner", spec_.runner);
    // Bind the metadata before iterating: range-for does not
    // lifetime-extend a temporary through the .items() call.
    const Json metadata = runner_->metadata();
    for (const auto &[key, value] : metadata.items())
        doc.set(key, value);
    doc.set("spec", spec_.toJson());
    doc.set("grid_points", plan_.points.size());
    Json cache = Json::object();
    cache.set("hits", plan_.points.size() - plan_.unique.size());
    cache.set("misses", plan_.unique.size());
    doc.set("cache", cache);
    doc.set("points", pointsJson);
    return doc;
}

} // namespace qc
