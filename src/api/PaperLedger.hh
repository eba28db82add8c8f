/**
 * @file
 * The paper-fidelity ledger: every characterization result of the
 * paper this repo reproduces — Tables 1-9 and Figures 4, 5b and 7 —
 * measured through the library at the paper's technology point and
 * set beside the value the paper prints. The Figure 6 cascade, the
 * simple-vs-pipelined factory and the Qalypso tile-size ablations
 * ride along as extension rows (no paper value).
 *
 * The ledger is the one point of the "paper" sweep runner
 * (`qcarch sweep specs/paper.json`); tests/paper_ledger.py compares
 * each row with its paper value and with the deviation table in
 * docs/PAPER_MAP.md.
 */

#ifndef QC_API_PAPER_LEDGER_HH
#define QC_API_PAPER_LEDGER_HH

#include "api/Json.hh"

namespace qc {

/**
 * The ledger rows, keyed by stable id ("table3.qrca.zero_per_ms").
 * Each row is {"measured": number, "paper": string or null}: the
 * paper value is kept exactly as the paper prints it, and null
 * marks an extension row. Monte Carlo rows (fixed seed) add their
 * 95% Wilson interval as "ci_lo" and "ci_hi".
 *
 * Deterministic: the same build returns the same bytes.
 */
Json paperLedger();

} // namespace qc

#endif // QC_API_PAPER_LEDGER_HH
