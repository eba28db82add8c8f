/**
 * @file
 * Config field tables. A table is one function that calls
 * `row(member, {path, domain, workload, analytics, hoard})` once per
 * field of a runner's config: the member it binds, its dotted JSON
 * path, its closed range or set of names, and whether it enters each
 * key. Parsing, serialization, the sweepable field list and every
 * key are derived from it, so a field is written once; defaults stay
 * in the struct's member initializers.
 */

#ifndef QC_API_FIELD_TABLE_HH
#define QC_API_FIELD_TABLE_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/Json.hh"

namespace qc {

/** Whether a field enters a key; Gated: only while the table's gate
 *  (a top-level bool field) is true. */
enum class KeyUse : std::uint8_t { No, Yes, Gated };

/** The built workload, the analytics memo, the hoard store. */
enum class ConfigKey : std::uint8_t { Workload, Analytics, Hoard };

/** The values a field admits beyond what its member type holds. */
struct FieldDomain
{
    double lo = -HUGE_VAL, hi = HUGE_VAL;
    std::vector<std::string> names; ///< legal strings; empty: any
};

inline FieldDomain atLeast(double lo) { return {lo, HUGE_VAL, {}}; }
inline FieldDomain within(double lo, double hi) { return {lo, hi, {}}; }
inline FieldDomain
oneOf(std::vector<std::string> names)
{
    return {-HUGE_VAL, HUGE_VAL, std::move(names)};
}

/** A table row: the field's dotted path, its domain, and whether it
 *  enters each key (indexed by ConfigKey). */
struct FieldRow
{
    const char *path;
    FieldDomain domain;
    KeyUse keys[3];
};

/** A row with what its member adds: the JSON kind of its default,
 *  and an integer type's range. An enum's values index its names. */
struct FieldSpec : FieldRow
{
    Json fallback; ///< the member initializer's value
    double typeLo = -HUGE_VAL, typeHi = HUGE_VAL; ///< [lo, hi)

    template <class T>
    FieldSpec(const FieldRow &row, const T &member)
        : FieldRow(row), fallback(toJson(member))
    {
        if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
            typeLo = static_cast<double>(std::numeric_limits<T>::lowest());
            typeHi = std::ldexp(1.0, std::numeric_limits<T>::digits);
        }
    }

    Json::Kind kind() const { return fallback.kind(); }
    bool integral() const { return typeHi != HUGE_VAL; }

    KeyUse use(ConfigKey key) const
    {
        return keys[static_cast<int>(key)];
    }

    /** The field's value in `config`, or nullptr when absent; an
     *  object on the path that is something else throws. */
    const Json *find(const Json &config) const;

    /** `value` as a number (a name's index, a bool's 0 or 1) if it
     *  fits the field, else std::invalid_argument naming the path. */
    double check(const Json &value) const;

    template <class T>
    Json
    toJson(const T &member) const
    {
        if constexpr (std::is_enum_v<T>)
            return domain.names.at(static_cast<std::size_t>(member));
        else
            return Json(member);
    }

    template <class T>
    void
    assign(const Json &value, T &member) const
    {
        const double v = check(value);
        if constexpr (std::is_same_v<T, std::string>)
            member = value.asString();
        else if constexpr (std::is_enum_v<T>)
            member = static_cast<T>(static_cast<int>(v));
        else
            member = static_cast<T>(v);
    }
};

/** A table's rows without their members: what the sweep engine,
 *  the hoard and `qcarch run` know of a runner's config. */
struct FieldSchema
{
    std::vector<FieldSpec> specs;
    std::size_t gate = static_cast<std::size_t>(-1); ///< row index

    /** Every path, sorted. */
    std::vector<std::string> paths() const;

    /** Canonical identity of the row values that enter `key`. */
    std::string key(const std::vector<Json> &values,
                    ConfigKey key) const;

    /** `config` without the fields that do not enter `key`. Never
     *  throws: a gate present but not false counts as on. */
    Json keyConfig(const Json &config, ConfigKey key) const;
};

/** The table `Fields` over config type C, with its schema. */
template <class C, class Fields>
class FieldTable : public FieldSchema
{
  public:
    explicit FieldTable(Fields fields,
                        const std::string &gatePath = "")
        : fields_(fields)
    {
        const C defaults{};
        fields_(defaults, [&](const auto &member, const FieldRow &row) {
            if (row.path == gatePath)
                gate = specs.size();
            specs.emplace_back(row, member);
        });
    }

    /** Rows present in `json` are checked and set, absent rows keep
     *  their defaults, and keys no row has are ignored. */
    C
    read(const Json &json) const
    {
        if (!json.isObject())
            throw std::invalid_argument(
                "config must be a JSON object, got " + json.dump(0));
        C config{};
        std::size_t i = 0;
        fields_(config, [&](auto &member, const FieldRow &) {
            const FieldSpec &spec = specs[i++];
            if (const Json *value = spec.find(json))
                spec.assign(*value, member);
        });
        return config;
    }

    Json
    write(const C &config) const
    {
        Json out = Json::object();
        const std::vector<Json> all = values(config);
        for (std::size_t i = 0; i < all.size(); ++i)
            setJsonPath(out, specs[i].path, all[i]);
        return out;
    }

    std::string
    key(const C &config, ConfigKey key) const
    {
        return FieldSchema::key(values(config), key);
    }

  private:
    /** Each row's value in `config`, in table order. */
    std::vector<Json>
    values(const C &config) const
    {
        std::vector<Json> out;
        fields_(config, [&](const auto &member, const FieldRow &) {
            out.push_back(specs[out.size()].toJson(member));
        });
        return out;
    }

    Fields fields_;
};

} // namespace qc

#endif // QC_API_FIELD_TABLE_HH
