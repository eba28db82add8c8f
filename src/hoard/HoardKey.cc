#include "hoard/HoardKey.hh"

#include "sweep/SweepPlan.hh"
#include "sweep/SweepRunner.hh"

namespace qc {

namespace {

/** The registered runner, or null for runners the registry does
 *  not know. */
const SweepRunner *
registered(const std::string &runner)
{
    const SweepRunnerRegistry &registry =
        SweepRunnerRegistry::instance();
    return registry.contains(runner) ? &registry.get(runner) : nullptr;
}

/** The runner's field table; empty (the identity policy) for
 *  runners the registry does not know. */
const FieldSchema &
runnerSchema(const std::string &runner)
{
    static const FieldSchema unknown;
    const SweepRunner *r = registered(runner);
    return r ? r->schema() : unknown;
}

} // namespace

Json
hoardKeyConfig(const std::string &runner, const Json &config)
{
    Json key = runnerSchema(runner).keyConfig(config, ConfigKey::Hoard);
    const SweepRunner *r = registered(runner);
    if (r && r->resultVersion() != 0 && key.isObject())
        key.set("result_version",
                static_cast<std::int64_t>(r->resultVersion()));
    return key;
}

std::string
hoardKeyHash(const std::string &runner, const Json &config)
{
    return hoardObjectKey(runner, hoardKeyConfig(runner, config));
}

std::string
hoardObjectKey(const std::string &runner, const Json &keyConfig)
{
    Json identity = Json::object();
    identity.set("config", keyConfig);
    identity.set("runner", runner);
    return hexConfigHash(identity.hash());
}

std::vector<std::string>
hoardReportingOnlyFields(const std::string &runner)
{
    std::vector<std::string> out;
    for (const FieldSpec &spec : runnerSchema(runner).specs) {
        if (spec.use(ConfigKey::Hoard) != KeyUse::Yes)
            out.push_back(spec.path);
    }
    return out;
}

} // namespace qc
