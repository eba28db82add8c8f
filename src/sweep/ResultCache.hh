/**
 * @file
 * The sweep engine's view of a persistent result cache: fetch a
 * previously computed result for a (runner, config) identity,
 * publish a newly computed one, and claim a point before computing
 * it, so that processes sharing one store split a sweep instead of
 * repeating it. HoardStore (src/hoard/) is the one
 * production implementation; the engine deliberately sees only this
 * interface so the sweep layer never includes hoard headers — the
 * module DAG runs sweep -> hoard via dependency injection at the
 * CLI, not via an include edge (enforced by qclint's layering rule
 * against tools/layers.json).
 */

#ifndef QC_SWEEP_RESULT_CACHE_HH
#define QC_SWEEP_RESULT_CACHE_HH

#include <string>

#include "api/Json.hh"

namespace qc {

class ResultCache
{
  public:
    /** What claim() found. */
    enum class Claim
    {
        Won,       ///< the caller holds the claim: compute, store, release
        TakenOver, ///< as Won, taken from a dead or expired holder
        Held,      ///< a live holder has it: skip now, revisit later
    };

    virtual ~ResultCache() = default;

    /**
     * Read-through lookup. On a valid hit, assigns the stored
     * result and returns true; any invalid or absent entry is a
     * miss. Must be thread-safe: the engine calls it from pool
     * workers. A hit must be byte-identical to cold computation of
     * the same point — the engine folds it into the aggregated
     * document without re-validation.
     */
    virtual bool fetch(const std::string &runner, const Json &config,
                       Json &result) = 0;

    /**
     * Publish a computed result (write-behind). Returns true if a
     * new entry was written; false for duplicates and for results
     * the cache refuses (e.g. {"error": ...}). Thread-safe.
     */
    virtual bool store(const std::string &runner, const Json &config,
                       const Json &result) = 0;

    /**
     * Claim the right to compute a point. The engine claims every
     * point it did not fetch, fetches once more after winning (the
     * last holder may have stored it meanwhile), and releases the
     * claim after storing the result. A claim only saves work: a
     * point is done exactly when the store holds it, so a lost or
     * doubled claim costs a duplicate computation, never a wrong
     * document. The default, for a store no other process shares,
     * always wins. Thread-safe.
     */
    virtual Claim claim(const std::string &, const Json &)
    {
        return Claim::Won;
    }

    /** Give up a claim that claim() won. Thread-safe. */
    virtual void release(const std::string &, const Json &) {}
};

} // namespace qc

#endif // QC_SWEEP_RESULT_CACHE_HH
