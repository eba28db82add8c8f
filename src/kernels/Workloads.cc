#include "kernels/Workloads.hh"

#include <algorithm>
#include <stdexcept>

#include "kernels/Adders.hh"
#include "kernels/Synthetic.hh"

namespace qc {

namespace {

struct WorkloadRow
{
    std::string name;
    std::string description;

    /** Benchmark-level circuit for the params. */
    Circuit (*circuit)(const WorkloadParams &params);

    /**
     * Paper-table label: "QRCA" displays as "32-Bit QRCA". Null for
     * the synthetic generators, which display their circuit's name.
     */
    const char *paperLabel;
};

const std::vector<WorkloadRow> &
workloadTable()
{
    static const std::vector<WorkloadRow> table = {
        {"qrca",
         "32-bit-style Quantum Ripple-Carry Adder "
         "(serial; paper Table 3's low-bandwidth kernel)",
         [](const WorkloadParams &p) {
             return makeQrca(p.bits).circuit;
         },
         "QRCA"},
        {"qcla",
         "Quantum Carry-Lookahead Adder (parallel; the "
         "paper's high-bandwidth adder)",
         [](const WorkloadParams &p) {
             return makeQcla(p.bits).circuit;
         },
         "QCLA"},
        {"qft",
         "Quantum Fourier Transform with Fowler-synthesized "
         "rotation words (Section 2.5)",
         [](const WorkloadParams &p) { return makeQft(p.bits, p.qft); },
         "QFT"},
        {"chain",
         "synthetic fully-serial 1-qubit H/T chain of `bits` gates "
         "(zero parallelism; exact analytic properties)",
         [](const WorkloadParams &p) { return makeChain(p.bits); },
         nullptr},
        {"ladder",
         "synthetic brickwork H+CX ladder, `bits` wide and `bits` "
         "layers deep (parallelism = width)",
         [](const WorkloadParams &p) {
             return makeLadder(p.bits, p.bits);
         },
         nullptr},
    };
    return table;
}

const WorkloadRow &
lookup(const std::string &name)
{
    for (const WorkloadRow &row : workloadTable()) {
        if (row.name == name)
            return row;
    }
    std::string message = "unknown workload \"" + name
        + "\"; registered workloads:";
    for (const std::string &known :
         WorkloadRegistry::instance().names())
        message += " " + known;
    throw std::invalid_argument(message);
}

} // namespace

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    return registry;
}

bool
WorkloadRegistry::contains(const std::string &name) const
{
    const auto &table = workloadTable();
    return std::any_of(table.begin(), table.end(),
                       [&](const WorkloadRow &row) {
                           return row.name == name;
                       });
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::vector<std::string> out;
    for (const WorkloadRow &row : workloadTable())
        out.push_back(row.name);
    std::sort(out.begin(), out.end());
    return out;
}

const std::string &
WorkloadRegistry::description(const std::string &name) const
{
    return lookup(name).description;
}

Workload
WorkloadRegistry::build(const std::string &name, FowlerSynth &synth,
                        const WorkloadParams &params) const
{
    const WorkloadRow &row = lookup(name);
    Circuit high = row.circuit(params);
    Lowered lowered =
        lowerToFaultTolerant(high, synth, params.lowering);
    std::string display = row.paperLabel
        ? std::to_string(params.bits) + "-Bit " + row.paperLabel
        : high.name();
    return Workload{name, std::move(display), std::move(high),
                    std::move(lowered)};
}

} // namespace qc
