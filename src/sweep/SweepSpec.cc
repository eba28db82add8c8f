#include "sweep/SweepSpec.hh"

#include <algorithm>
#include <stdexcept>

#include "sweep/SweepRunner.hh"

namespace qc {

namespace {

SweepAxis::Leg
legFromJson(const Json &json)
{
    if (!json.isObject() || !json.has("field")
        || !json.has("values")) {
        throw std::invalid_argument(
            "sweep axis must be an object with \"field\" and "
            "\"values\" keys (or a \"zip\" group of them); got "
            + json.dump(0));
    }
    SweepAxis::Leg leg;
    leg.field = json.at("field").asString();
    const Json &values = json.at("values");
    if (!values.isArray() || values.size() == 0) {
        throw std::invalid_argument(
            "sweep axis \"" + leg.field
            + "\": \"values\" must be a non-empty array");
    }
    for (std::size_t i = 0; i < values.size(); ++i)
        leg.values.push_back(values.at(i));
    return leg;
}

SweepAxis
axisFromJson(const Json &json)
{
    SweepAxis axis;
    if (json.isObject() && json.has("zip")) {
        const Json &legs = json.at("zip");
        if (!legs.isArray() || legs.size() < 2) {
            throw std::invalid_argument(
                "sweep \"zip\" group needs at least two legs");
        }
        for (std::size_t i = 0; i < legs.size(); ++i)
            axis.legs.push_back(legFromJson(legs.at(i)));
        for (const SweepAxis::Leg &leg : axis.legs) {
            if (leg.values.size() != axis.length()) {
                throw std::invalid_argument(
                    "sweep zip legs must have equal lengths: \""
                    + axis.legs.front().field + "\" has "
                    + std::to_string(axis.length()) + ", \""
                    + leg.field + "\" has "
                    + std::to_string(leg.values.size()));
            }
        }
    } else {
        axis.legs.push_back(legFromJson(json));
    }
    return axis;
}

Json
axisToJson(const SweepAxis &axis)
{
    auto legJson = [](const SweepAxis::Leg &leg) {
        Json j = Json::object();
        j.set("field", leg.field);
        Json values = Json::array();
        for (const Json &v : leg.values)
            values.push(v);
        j.set("values", values);
        return j;
    };
    if (axis.legs.size() == 1)
        return legJson(axis.legs.front());
    Json legs = Json::array();
    for (const SweepAxis::Leg &leg : axis.legs)
        legs.push(legJson(leg));
    Json j = Json::object();
    j.set("zip", legs);
    return j;
}

std::vector<SweepAxis>
axesFromJson(const Json &json)
{
    if (!json.isArray())
        throw std::invalid_argument(
            "sweep \"axes\" must be an array");
    std::vector<SweepAxis> axes;
    for (std::size_t i = 0; i < json.size(); ++i)
        axes.push_back(axisFromJson(json.at(i)));
    return axes;
}

} // namespace

std::size_t
SweepGrid::points() const
{
    std::size_t n = 1;
    for (const SweepAxis &axis : axes) {
        // Overflow-checked product: a hostile spec's cartesian
        // blow-up must be a clean error, not a size_t wrap that
        // under-reports the grid (and then over-allocates).
        std::size_t next = 0;
        if (__builtin_mul_overflow(n, axis.length(), &next)
            || next > kMaxSweepPoints) {
            throw std::invalid_argument(
                "sweep grid expands past the "
                + std::to_string(kMaxSweepPoints)
                + "-point limit");
        }
        n = next;
    }
    return n;
}

SweepSpec
SweepSpec::fromJson(const Json &json)
{
    if (!json.isObject())
        throw std::invalid_argument(
            "sweep spec must be a JSON object");
    // Unknown document keys fail fast too: a typo'd "axis" must
    // not silently collapse the sweep to a bare-base point.
    for (const auto &[key, value] : json.items()) {
        if (key != "name" && key != "runner" && key != "base"
            && key != "axes" && key != "grids") {
            throw std::invalid_argument(
                "unknown sweep spec key \"" + key
                + "\"; expected name, runner, base, axes, grids");
        }
    }
    SweepSpec spec;
    spec.name = json.getString("name", "");
    spec.runner = json.getString("runner", spec.runner);
    if (json.has("base"))
        spec.base = json.at("base");

    if (json.has("axes") && json.has("grids")) {
        throw std::invalid_argument(
            "sweep spec: give either top-level \"axes\" (single "
            "grid) or \"grids\", not both");
    }
    if (json.has("axes")) {
        SweepGrid grid;
        grid.axes = axesFromJson(json.at("axes"));
        spec.grids.push_back(std::move(grid));
    } else if (json.has("grids")) {
        const Json &grids = json.at("grids");
        if (!grids.isArray() || grids.size() == 0) {
            throw std::invalid_argument(
                "sweep \"grids\" must be a non-empty array");
        }
        for (std::size_t i = 0; i < grids.size(); ++i) {
            const Json &g = grids.at(i);
            if (!g.isObject()) {
                throw std::invalid_argument(
                    "sweep grid entries must be objects with "
                    "\"axes\" (and optional \"base\")");
            }
            for (const auto &[key, value] : g.items()) {
                if (key != "base" && key != "axes") {
                    throw std::invalid_argument(
                        "unknown sweep grid key \"" + key
                        + "\"; expected base, axes");
                }
            }
            SweepGrid grid;
            if (g.has("base"))
                grid.base = g.at("base");
            if (g.has("axes"))
                grid.axes = axesFromJson(g.at("axes"));
            spec.grids.push_back(std::move(grid));
        }
    } else {
        // A bare base is a one-point sweep (grid with no axes).
        spec.grids.push_back(SweepGrid{});
    }

    // Fail fast on unknown runners and fields (zip-length
    // mismatches already threw during axis parsing above).
    spec.validate();
    return spec;
}

SweepSpec
SweepSpec::load(const std::string &path)
{
    return fromJson(Json::loadFile(path));
}

Json
SweepSpec::toJson() const
{
    Json j = Json::object();
    if (!name.empty())
        j.set("name", name);
    j.set("runner", runner);
    j.set("base", base);
    if (grids.size() == 1 && grids.front().base == Json::object()) {
        Json axes = Json::array();
        for (const SweepAxis &axis : grids.front().axes)
            axes.push(axisToJson(axis));
        j.set("axes", axes);
    } else {
        Json gridsJson = Json::array();
        for (const SweepGrid &grid : grids) {
            Json g = Json::object();
            if (grid.base != Json::object())
                g.set("base", grid.base);
            Json axes = Json::array();
            for (const SweepAxis &axis : grid.axes)
                axes.push(axisToJson(axis));
            g.set("axes", axes);
            gridsJson.push(g);
        }
        j.set("grids", gridsJson);
    }
    return j;
}

std::size_t
SweepSpec::points() const
{
    std::size_t n = 0;
    for (const SweepGrid &grid : grids) {
        n += grid.points();
        if (n > kMaxSweepPoints) {
            throw std::invalid_argument(
                "sweep spec expands past the "
                + std::to_string(kMaxSweepPoints)
                + "-point limit");
        }
    }
    return n;
}

void
flattenPaths(const Json &json, const std::string &prefix,
             std::vector<std::string> &out)
{
    for (const auto &[key, value] : json.items()) {
        const std::string path =
            prefix.empty() ? key : prefix + "." + key;
        if (value.isObject() && value.items().size() > 0)
            flattenPaths(value, path, out);
        else
            out.push_back(path);
    }
}

void
SweepSpec::validate() const
{
    const SweepRunner &r =
        SweepRunnerRegistry::instance().get(runner);
    const std::vector<std::string> valid = r.fields();
    auto check = [&](const std::string &field, const char *where) {
        if (std::find(valid.begin(), valid.end(), field)
            == valid.end()) {
            throw std::invalid_argument(
                "unknown sweep " + std::string(where) + " \""
                + field + "\" for runner \"" + r.name()
                + "\"; valid fields: " + joinNames(valid));
        }
    };
    // Base keys get the same fail-fast treatment as axis fields: a
    // typo ("pgate") must not silently sweep at the default value.
    std::vector<std::string> basePaths;
    flattenPaths(base, "", basePaths);
    for (const SweepGrid &grid : grids)
        flattenPaths(grid.base, "", basePaths);
    for (const std::string &path : basePaths)
        check(path, "base key");
    for (const SweepGrid &grid : grids) {
        for (const SweepAxis &axis : grid.axes) {
            for (const SweepAxis::Leg &leg : axis.legs)
                check(leg.field, "field");
        }
    }
}

std::vector<SweepPoint>
SweepSpec::expand() const
{
    validate();
    std::vector<SweepPoint> points;
    for (const SweepGrid &grid : grids) {
        const Json gridBase = mergeJson(base, grid.base);
        // Odometer over the axes: the last axis varies fastest.
        std::vector<std::size_t> at(grid.axes.size(), 0);
        const std::size_t total = grid.points();
        for (std::size_t i = 0; i < total; ++i) {
            SweepPoint point;
            point.config = gridBase;
            point.assignment = Json::object();
            for (std::size_t a = 0; a < grid.axes.size(); ++a) {
                for (const SweepAxis::Leg &leg :
                     grid.axes[a].legs) {
                    const Json &value = leg.values[at[a]];
                    setJsonPath(point.config, leg.field, value);
                    point.assignment.set(leg.field, value);
                }
            }
            points.push_back(std::move(point));
            for (std::size_t a = grid.axes.size(); a-- > 0;) {
                if (++at[a] < grid.axes[a].length())
                    break;
                at[a] = 0;
            }
        }
    }
    return points;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

void
setJsonPath(Json &object, const std::string &path, Json value)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        object.set(path, std::move(value));
        return;
    }
    const std::string head = path.substr(0, dot);
    Json child = object.has(head) && object.at(head).isObject()
        ? object.at(head)
        : Json::object();
    setJsonPath(child, path.substr(dot + 1), std::move(value));
    object.set(head, std::move(child));
}

Json
mergeJson(const Json &base, const Json &overlay)
{
    if (!base.isObject() || !overlay.isObject())
        return overlay;
    Json out = base;
    for (const auto &[key, value] : overlay.items()) {
        if (out.has(key) && out.at(key).isObject()
            && value.isObject()) {
            out.set(key, mergeJson(out.at(key), value));
        } else {
            out.set(key, value);
        }
    }
    return out;
}

} // namespace qc
