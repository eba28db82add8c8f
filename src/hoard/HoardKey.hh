/**
 * @file
 * The hoard cache-key policy: which configuration fields identify a
 * result, and which are reporting-only knobs that cannot change it.
 *
 * A sweep point's result is cached under the hash of its *key
 * configuration* — the canonical config JSON with the runner's
 * reporting-only fields normalized away. Two configs that differ
 * only in reporting-only fields therefore share one stored object,
 * which is what makes results reusable across spec variants (the
 * PR 5 "reuse compatible points" open item, resolved here as a key
 * policy with its own classification-guard tests in
 * tests/test_hoard.cc: every runner field must be classified as
 * semantic or reporting-only, so adding a field without deciding
 * fails a test).
 *
 * The policy is the hoard column of the runner's field table
 * (SweepRunner::schema()). For "experiment" it leaves out
 * `demandBins` (the stored Result::summaryJson() has no demand
 * profile) and, unless `calibrateFactories` is on,
 * `calibrationTrials`. Unknown fields stay in the key, and runners
 * without a table get the identity policy: every field semantic,
 * which is always safe (worst case a needless miss, never a wrong
 * hit). No JSON value makes the policy throw.
 */

#ifndef QC_HOARD_HOARD_KEY_HH
#define QC_HOARD_HOARD_KEY_HH

#include <string>
#include <vector>

#include "api/Json.hh"

namespace qc {

/**
 * The canonical cache identity of one point configuration under
 * the named runner's key policy: a copy of `config` with the
 * runner's reporting-only fields normalized away. Stored verbatim
 * in each object as `key_config`, and compared exactly on fetch so
 * a 64-bit hash collision can never serve a wrong result.
 */
Json hoardKeyConfig(const std::string &runner, const Json &config);

/** 16-hex-digit store key: hexConfigHash of the key configuration
 *  (with the runner name mixed in, so two runners whose configs
 *  happen to collide still get distinct objects). */
std::string hoardKeyHash(const std::string &runner,
                         const Json &config);

/** The dotted config fields the policy normalizes away for this
 *  runner (empty for runners with an identity policy). Exposed so
 *  the classification-guard tests enumerate the policy rather than
 *  re-stating it. */
std::vector<std::string>
hoardReportingOnlyFields(const std::string &runner);

} // namespace qc

#endif // QC_HOARD_HOARD_KEY_HH
