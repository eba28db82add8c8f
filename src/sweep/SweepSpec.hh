/**
 * @file
 * Declarative description of an experiment sweep: a named runner, a
 * base configuration, and one or more grids of axes over the
 * runner's configuration fields. The paper's result sweeps — error
 * -rate planes (Fig 4/8), architecture comparisons (Fig 15), level
 * scaling studies — are each one SweepSpec, expanded to a
 * deterministic point list and executed by the engine in
 * SweepEngine.hh.
 *
 * JSON shape (see docs/SWEEPS.md for the full format):
 *
 *     {
 *       "name": "fig4_grid",
 *       "runner": "mc-prep",
 *       "base": {"trials": 2000000, "seed": 20080623},
 *       "axes": [
 *         {"field": "strategy",
 *          "values": ["basic", "verify_and_correct"]},
 *         {"field": "pGate", "values": [1e-5, 1e-4, 1e-3]},
 *         {"field": "pMove", "values": [1e-7, 1e-6]}
 *       ]
 *     }
 *
 * Axes expand as a cartesian product in declaration order (the last
 * axis varies fastest, like nested loops). An axis may instead be a
 * *zip* group — parallel legs of equal length that advance together,
 * for sweeping tuples like (arch, generatorsPerSite) pairs:
 *
 *     {"zip": [{"field": "arch", "values": ["qla", "gqla"]},
 *              {"field": "generatorsPerSite", "values": [1, 4]}]}
 *
 * A spec may hold several "grids" (each with optional base
 * overrides); the point list is their concatenation. Field names
 * are dotted paths into the runner's config JSON ("errors.pGate");
 * unknown fields throw std::invalid_argument listing the runner's
 * valid fields.
 */

#ifndef QC_SWEEP_SWEEP_SPEC_HH
#define QC_SWEEP_SWEEP_SPEC_HH

#include <cstddef>
#include <string>
#include <vector>

#include "api/Json.hh"

namespace qc {

/** One sweep dimension: a single field, or zipped parallel legs. */
struct SweepAxis
{
    struct Leg
    {
        std::string field;        ///< dotted config path
        std::vector<Json> values; ///< one per step along the axis
    };

    /** size() == 1 for a plain axis, > 1 for a zip group. */
    std::vector<Leg> legs;

    /** Steps along this axis (equal for every leg of a zip). */
    std::size_t length() const
    {
        return legs.empty() ? 0 : legs.front().values.size();
    }
};

/**
 * Largest point count a spec may expand to. A hostile (or typo'd)
 * spec whose cartesian product explodes must fail with a clear
 * error while still cheap to detect — not overflow std::size_t in
 * points() or OOM materializing the list. The largest shipped
 * paper grid is ~10^3 points; 2^22 leaves three orders of
 * magnitude of headroom.
 */
constexpr std::size_t kMaxSweepPoints = std::size_t(1) << 22;

/** One cartesian grid of axes, with optional base overrides. */
struct SweepGrid
{
    Json base = Json::object();  ///< merged over the spec base
    std::vector<SweepAxis> axes; ///< product in declaration order

    /** Points this grid expands to (product of axis lengths).
     *  Throws std::invalid_argument beyond kMaxSweepPoints. */
    std::size_t points() const;
};

/**
 * One expanded sweep point: the fully merged configuration handed
 * to the runner, and the flat axis assignment that labels the point
 * in the aggregated output.
 */
struct SweepPoint
{
    Json config;     ///< base + grid base + axis assignments
    Json assignment; ///< dotted-field -> value, axes only
};

/** A complete sweep description; see the file comment for JSON. */
struct SweepSpec
{
    std::string name;                 ///< output label
    std::string runner = "experiment"; ///< SweepRunnerRegistry key
    Json base = Json::object();       ///< shared config defaults
    std::vector<SweepGrid> grids;     ///< concatenated point lists

    /**
     * Parse a spec document. A top-level "axes" array is shorthand
     * for a single grid. Throws std::invalid_argument on malformed
     * shapes, unknown runners, unknown axis fields (listing the
     * valid ones) and zip legs of unequal length.
     */
    static SweepSpec fromJson(const Json &json);

    /** fromJson(Json::loadFile(path)). */
    static SweepSpec load(const std::string &path);

    Json toJson() const;

    /** Total points across all grids. */
    std::size_t points() const;

    /**
     * Check the runner exists and every axis field is one it
     * publishes, without materializing the point list. Throws
     * std::invalid_argument listing the valid names otherwise.
     */
    void validate() const;

    /**
     * Expand to the deterministic point list: grids in order, each
     * grid a cartesian product with the last axis varying fastest.
     * Re-validates axis fields against the runner's field list.
     */
    std::vector<SweepPoint> expand() const;
};

/** Deep-merge overlay onto base: overlay's keys win; nested
 *  objects merge recursively. */
Json mergeJson(const Json &base, const Json &overlay);

/** "a, b, c" — for error messages listing valid names. */
std::string joinNames(const std::vector<std::string> &names);

} // namespace qc

#endif // QC_SWEEP_SWEEP_SPEC_HH
