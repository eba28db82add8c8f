/**
 * @file
 * Minimal JSON value type for the experiment API: enough to
 * round-trip ExperimentConfig and serialize Result for the BENCH_*
 * trajectory files, with no external dependency.
 *
 * Objects keep their keys sorted (std::map), so serialization is
 * deterministic and diff-friendly. Numbers are stored as double;
 * integral values within the exact double range print without a
 * decimal point, so Time (int64 nanoseconds) fields survive a
 * round-trip bit-exactly for any simulated time under ~104 days.
 *
 * Errors (syntax errors on parse, kind mismatches on access) throw
 * std::invalid_argument: the API layer reports user-input problems
 * as catchable exceptions rather than aborting, unlike the panic()
 * convention of the inner simulation layers.
 *
 * The parser is the trust boundary for every file the process does
 * not control (claim files, hoard objects, sweep specs),
 * so it enforces two hard resource bounds:
 * documents larger than kMaxDocumentBytes and nesting deeper than
 * kMaxParseDepth are parse errors, never allocations or stack
 * frames. Untrusted-input callers that must not throw use the
 * find()/asIndex() accessors instead of at()/asInt().
 */

#ifndef QC_API_JSON_HH
#define QC_API_JSON_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qc {

class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double v) : kind_(Kind::Number), number_(v) {}
    Json(int v) : Json(static_cast<double>(v)) {}
    Json(std::int64_t v) : Json(static_cast<double>(v)) {}
    Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
    Json(const char *s) : kind_(Kind::String), string_(s) {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

    /** An empty array / object (distinct from null). */
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Checked accessors; throw std::invalid_argument on mismatch.
     *  asInt additionally throws when the number is NaN or outside
     *  the int64 range — the cast would otherwise be undefined
     *  behavior on hostile input like 1e300. */
    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    const std::string &asString() const;

    /**
     * Non-throwing index accessor for untrusted documents: true
     * iff this is a number that is finite, integral, non-negative
     * and at most 2^53 - 1 (exactly representable), writing it to
     * `out`. Protocol code uses this for array indices so a
     * hostile "index": 1e300 reads as malformed, not as UB.
     */
    bool asIndex(std::size_t &out) const;

    /** Array access. */
    std::size_t size() const;
    const Json &at(std::size_t index) const;
    void push(Json value);

    /** Object access. */
    bool has(const std::string &key) const;
    const Json &at(const std::string &key) const;
    void set(const std::string &key, Json value);
    const std::map<std::string, Json> &items() const;

    /**
     * Bounds-checked lookups for untrusted documents: nullptr when
     * this is not an object/array or the key/index is absent,
     * never a throw. The parse surfaces on the claim and hoard
     * fetch paths must use these (enforced by qclint's
     * parse-robustness rule) so a malformed file reads as a clean
     * rejection instead of an exception mid-sweep.
     */
    const Json *find(const std::string &key) const;
    const Json *find(std::size_t index) const;

    /** Typed object lookups with defaults for absent keys. */
    bool getBool(const std::string &key, bool fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    std::int64_t getInt(const std::string &key,
                        std::int64_t fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** Serialize; indent > 0 pretty-prints with that step. */
    std::string dump(int indent = 2) const;

    /**
     * Stable 64-bit content hash (FNV-1a over the canonical dump).
     * Keys are sorted, so two values that compare equal hash equal
     * regardless of construction order; used by the sweep engine's
     * per-point config memoization.
     */
    std::uint64_t hash() const;

    /**
     * Hard input bounds, enforced by parse(). Deeper nesting or a
     * larger document is a parse error (std::invalid_argument
     * naming the limit) — never a stack overflow or an unbounded
     * allocation. Real configs/results nest a handful of levels
     * and the largest aggregated sweep documents are a few MB;
     * both limits carry order-of-magnitude headroom.
     */
    static constexpr int kMaxParseDepth = 256;
    static constexpr std::size_t kMaxDocumentBytes =
        std::size_t(64) << 20; // 64 MiB

    /** Parse a complete JSON document; throws on syntax errors. */
    static Json parse(const std::string &text);

    /** File helpers (throw std::invalid_argument on I/O failure). */
    static Json loadFile(const std::string &path);
    void saveFile(const std::string &path, int indent = 2) const;

    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const
    {
        return !(*this == other);
    }

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::map<std::string, Json> object_;
};

/**
 * obj[key] as the integer type T, or fallback when absent. A value
 * T cannot hold throws std::invalid_argument naming the field
 * (prefix + key) rather than wrapping.
 */
template <typename T>
T
getNarrow(const Json &obj, const std::string &prefix,
          const std::string &key, T fallback)
{
    if (!obj.has(key))
        return fallback;
    const std::int64_t v = obj.at(key).asInt();
    if (!std::in_range<T>(v))
        throw std::invalid_argument(
            "config field \"" + prefix + key + "\" = "
            + std::to_string(v) + " is out of range");
    return static_cast<T>(v);
}

} // namespace qc

#endif // QC_API_JSON_HH
