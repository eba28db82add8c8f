/**
 * @file
 * The expansion/aggregation layer under the sweep engine. A
 * SweepPlan is the deterministic expansion of a spec plus its
 * config-dedup structure; a SweepAssembler owns the plan, collects
 * per-unique-point results — computed, or fetched from the result
 * store — and emits the aggregated document.
 *
 * This layer is what keeps the multi-process guarantee cheap:
 * every copy of a sweep sharing one store builds its document
 * through the same code over the same plan, so equal results give
 * byte-equal documents by construction.
 */

#ifndef QC_SWEEP_SWEEP_PLAN_HH
#define QC_SWEEP_SWEEP_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sweep/SweepRunner.hh"
#include "sweep/SweepSpec.hh"

namespace qc {

/** "%016llx" of a config hash — the document's config_hash key. */
std::string hexConfigHash(std::uint64_t hash);

/**
 * A spec's expanded point list with its dedup structure. Every
 * field is a pure function of the spec, so two processes expanding
 * the same spec agree on every index.
 */
struct SweepPlan
{
    std::vector<SweepPoint> points; ///< expansion order
    std::vector<std::uint64_t> hashes;    ///< per-point config hash
    /** points[i] is a duplicate of points[canonical[i]] (the first
     *  point with the same canonical config); canonical[i] == i for
     *  the unique points. */
    std::vector<std::size_t> canonical;
    std::vector<std::size_t> unique; ///< canonical indices, in order

    /** Expand and dedup; throws std::invalid_argument on zero-point
     *  specs (a vacuous document helps nobody). */
    static SweepPlan expand(const SweepSpec &spec);
};

/**
 * Collects results for a plan and emits the aggregated document.
 * Not thread-safe; callers serialize access (the engine uses its
 * progress mutex).
 */
class SweepAssembler
{
  public:
    /** Expands the spec (copied) and resolves the runner. */
    explicit SweepAssembler(const SweepSpec &spec);

    const SweepPlan &plan() const { return plan_; }
    const SweepSpec &spec() const { return spec_; }
    const SweepRunner &runner() const { return *runner_; }

    /** Unique (canonical) indices still needing a result, in
     *  order. Shrinks as results arrive. */
    std::vector<std::size_t> pending() const;

    /** True once the canonical index has a result. */
    bool has(std::size_t canonicalIndex) const
    {
        return haveResult_[canonicalIndex] != 0;
    }

    /**
     * Store the runner's metrics (or {"error": ...}) for one
     * canonical index. `failed` marks points that threw. Returns
     * false (and changes nothing) if the index already has a
     * result.
     */
    bool setResult(std::size_t canonicalIndex, Json result,
                   bool failed);

    bool complete() const { return pendingCount_ == 0; }

    /** Expanded points whose result carries {"error": ...} (memo
     *  duplicates of a failed point included). */
    std::size_t failedPoints() const;

    /**
     * The aggregated document: one flat object per expanded point
     * (assignment, then runner metrics, then config_hash), document
     * metadata, spec provenance, cache accounting. Throws
     * std::logic_error unless complete().
     */
    Json document() const;

  private:
    SweepSpec spec_;
    const SweepRunner *runner_;
    SweepPlan plan_;
    std::vector<Json> results_;      ///< by canonical index
    std::vector<char> haveResult_;   ///< by canonical index
    std::vector<char> resultFailed_; ///< by canonical index
    std::size_t pendingCount_ = 0;
};

} // namespace qc

#endif // QC_SWEEP_SWEEP_PLAN_HH
