/**
 * @file
 * Named, parameterized benchmark workloads: the fixed table of
 * circuit builders covering the paper's kernels (Section 3.1's
 * adders and QFT) plus synthetic generators for scaling studies.
 *
 * Builders produce the circuit at the benchmark gate level and
 * lowered to the fault-tolerant [[7,1,3]] gate set in one step, so
 * every consumer — examples, qc::Experiment, the paper ledger —
 * shares one construction path instead of wiring
 * makeQrca/lowerToFaultTolerant by hand. A new workload is one row of the table in
 * kernels/Workloads.cc.
 *
 * Unknown names throw std::invalid_argument listing the known
 * names (catchable; the API layer does not abort on user input).
 */

#ifndef QC_KERNELS_WORKLOADS_HH
#define QC_KERNELS_WORKLOADS_HH

#include <string>
#include <vector>

#include "kernels/Lower.hh"
#include "kernels/Qft.hh"
#include "synth/Fowler.hh"

namespace qc {

/** Construction knobs shared by all workload builders. */
struct WorkloadParams
{
    /** Operand width in bits / logical qubit count (paper: 32). */
    int bits = 32;

    /** Lowering knobs (rotation cutoff index k for pi/2^k). */
    LoweringOptions lowering{};

    /** QFT-specific generation knobs. */
    QftOptions qft{};
};

/** A fully-constructed workload: benchmark-level and lowered. */
struct Workload
{
    std::string key;    ///< table name it was built from
    std::string name;   ///< display name (paper-table style)
    Circuit highLevel;  ///< over {Toffoli, CRotZ, ...}
    Lowered lowered;    ///< fault-tolerant gate set
};

/**
 * The fixed workload table: qrca, qcla, qft (display names
 * "<bits>-Bit QRCA" etc., as in the paper's tables), chain and
 * ladder.
 */
class WorkloadRegistry
{
  public:
    static WorkloadRegistry &instance();

    bool contains(const std::string &name) const;

    /** Table names, sorted. */
    std::vector<std::string> names() const;

    /** One-line description; throws on unknown names. */
    const std::string &description(const std::string &name) const;

    /** Build a workload by name; throws on unknown names. */
    Workload build(const std::string &name, FowlerSynth &synth,
                   const WorkloadParams &params = {}) const;
};

} // namespace qc

#endif // QC_KERNELS_WORKLOADS_HH
