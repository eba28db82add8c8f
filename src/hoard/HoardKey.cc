#include "hoard/HoardKey.hh"

#include "sweep/SweepPlan.hh"
#include "sweep/SweepRunner.hh"

namespace qc {

namespace {

/** The runner's field table; empty (the identity policy) for
 *  runners the registry does not know. */
const FieldSchema &
runnerSchema(const std::string &runner)
{
    static const FieldSchema unknown;
    const SweepRunnerRegistry &registry =
        SweepRunnerRegistry::instance();
    return registry.contains(runner) ? registry.get(runner).schema()
                                     : unknown;
}

} // namespace

Json
hoardKeyConfig(const std::string &runner, const Json &config)
{
    return runnerSchema(runner).keyConfig(config, ConfigKey::Hoard);
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
    std::vector<std::string> out;
    for (const FieldSpec &spec : runnerSchema(runner).specs) {
        if (spec.use(ConfigKey::Hoard) != KeyUse::Yes)
            out.push_back(spec.path);
    }
    return out;
}

} // namespace qc
