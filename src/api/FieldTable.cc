#include "api/FieldTable.hh"

#include <algorithm>
#include <stdexcept>

namespace qc {

namespace {

/** `object` without the member at a dotted path; unchanged where
 *  the path is absent or runs through something not an object. */
Json
withoutPath(const Json &object, const std::string &path)
{
    const std::size_t dot = path.find('.');
    const std::string head = path.substr(0, dot);
    const Json *child = object.find(head);
    if (!child || (dot != std::string::npos && !child->isObject()))
        return object;
    Json out = Json::object();
    for (const auto &[name, value] : object.items()) {
        if (name != head)
            out.set(name, value);
    }
    if (dot != std::string::npos)
        out.set(head, withoutPath(*child, path.substr(dot + 1)));
    return out;
}

bool
enters(const FieldSpec &spec, ConfigKey key, bool gateOn)
{
    const KeyUse use = spec.use(key);
    return use == KeyUse::Yes || (use == KeyUse::Gated && gateOn);
}

} // namespace

const Json *
FieldSpec::find(const Json &config) const
{
    const std::string dotted = path;
    const Json *node = &config;
    for (std::size_t start = 0;;) {
        const std::size_t dot = dotted.find('.', start);
        node = node->find(dotted.substr(start, dot - start));
        if (!node || dot == std::string::npos)
            return node;
        if (!node->isObject()) {
            throw std::invalid_argument(
                "config field \"" + dotted.substr(0, dot)
                + "\" must be an object, got " + node->dump(0));
        }
        start = dot + 1;
    }
}

double
FieldSpec::check(const Json &value) const
{
    const auto fail = [&](const std::string &why) {
        throw std::invalid_argument("config field \""
                                    + std::string(path) + "\" " + why);
    };
    const std::vector<std::string> &names = domain.names;
    const auto it = value.isString()
        ? std::find(names.begin(), names.end(), value.asString())
        : names.end();
    const double v = value.isNumber() ? value.asDouble() : 0.0;
    if (value.kind() != kind() || (integral() && v != std::floor(v))
        || (!names.empty() && it == names.end())) {
        std::string want = kind() == Json::Kind::Bool ? "true or false"
            : kind() == Json::Kind::String           ? "a string"
            : integral()                             ? "an integer"
                                                     : "a number";
        for (std::size_t i = 0; i < names.size(); ++i)
            want = (i ? want + ", " : "one of ") + names[i];
        fail("must be " + want + ", got " + value.dump(0));
    }
    if (!(v >= typeLo && v < typeHi))
        fail("= " + value.dump(0) + " is out of range");
    if (!(v >= domain.lo && v <= domain.hi)) {
        const std::string lo = Json(domain.lo).dump(0);
        const std::string hi = Json(domain.hi).dump(0);
        fail(domain.hi == HUGE_VAL    ? "must be >= " + lo
             : domain.lo == -HUGE_VAL ? "must be <= " + hi
                                      : "must be in [" + lo + ", " + hi
                                            + "]");
    }
    if (value.isBool())
        return value.asBool();
    return names.empty() ? v : static_cast<double>(it - names.begin());
}

std::vector<std::string>
FieldSchema::paths() const
{
    std::vector<std::string> out;
    for (const FieldSpec &spec : specs)
        out.push_back(spec.path);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
FieldSchema::key(const std::vector<Json> &values, ConfigKey key) const
{
    const bool gateOn = gate < specs.size() && values[gate].asBool();
    Json out = Json::object();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (enters(specs[i], key, gateOn))
            out.set(specs[i].path, values[i]);
    }
    return out.dump(0);
}

Json
FieldSchema::keyConfig(const Json &config, ConfigKey key) const
{
    if (!config.isObject())
        return config;
    bool gateOn = false;
    if (gate < specs.size()) {
        const Json *value = config.find(specs[gate].path);
        const Json &on = value ? *value : specs[gate].fallback;
        gateOn = !(on.isBool() && !on.asBool());
    }
    Json out = config;
    for (const FieldSpec &spec : specs) {
        if (!enters(spec, key, gateOn))
            out = withoutPath(out, spec.path);
    }
    return out;
}

} // namespace qc
