#include "hoard/HoardKey.hh"

#include "sweep/SweepPlan.hh"

namespace qc {

namespace {

/** Rebuild an object without one top-level key (Json has no erase;
 *  objects are small). No-op when the key is absent. */
Json
withoutKey(const Json &object, const std::string &key)
{
    Json out = Json::object();
    for (const auto &[name, value] : object.items()) {
        if (name != key)
            out.set(name, value);
    }
    return out;
}

} // namespace

Json
hoardKeyConfig(const std::string &runner, const Json &config)
{
    if (runner != "experiment" || !config.isObject())
        return config;
    // demandBins only shapes the demand-profile report, which
    // summaryJson() (the stored result) does not include.
    Json key = withoutKey(config, "demandBins");
    // calibrationTrials is read only by the factory-calibration
    // pass; with calibration off it is inert.
    if (!key.getBool("calibrateFactories", false))
        key = withoutKey(key, "calibrationTrials");
    return key;
}

std::string
hoardKeyHash(const std::string &runner, const Json &config)
{
    Json identity = Json::object();
    identity.set("config", hoardKeyConfig(runner, config));
    identity.set("runner", runner);
    return hexConfigHash(identity.hash());
}

std::vector<std::string>
hoardReportingOnlyFields(const std::string &runner)
{
    if (runner == "experiment")
        return {"demandBins", "calibrationTrials"};
    return {};
}

} // namespace qc
