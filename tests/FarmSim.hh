/**
 * @file
 * Event-level simulation of the pipelined encoded-zero factory
 * (Fig 12): candidates flow through the prep farm, the CX encode
 * network, cat preparation, verification post-selection and the
 * correction stage, each modeled as a bank of initiation-limited
 * units with the Table 5 latencies.
 *
 * This cross-validates the closed-form Table 6 design: the measured
 * steady-state output rate must match ZeroFactory::throughput()
 * (10.5 encoded ancillae/ms at the paper's technology point), and
 * the first-output latency must match the pipeline fill time. Only
 * test_extensions uses it, so it lives beside that test.
 */

#ifndef QC_TESTS_FARM_SIM_HH
#define QC_TESTS_FARM_SIM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/Logging.hh"
#include "common/Rng.hh"
#include "factory/ZeroFactory.hh"

namespace qc {

/** Outcome of a factory-pipeline simulation. */
struct FarmSimResult
{
    /** Measured steady-state output rate (per ms). */
    BandwidthPerMs throughput = 0;

    /** Completion time of the first delivered ancilla. */
    Time firstOutput = 0;

    /** Ancillae delivered. */
    std::uint64_t produced = 0;

    /** Candidates rejected by verification. */
    std::uint64_t discarded = 0;
};

namespace farm_detail {

/**
 * An initiation-limited bank of pipelined units: `count` units each
 * able to hold `stages` in-flight batches, so slot k starts at
 * ceil(k / (count*stages)) * (latency / stages) and finishes latency
 * later. Items also wait for their inputs.
 */
class StageBank
{
  public:
    explicit StageBank(const StageDesign &stage)
        : latency_(stage.unit.latency),
          interval_(stage.unit.latency / stage.unit.stages),
          slots_(static_cast<std::size_t>(stage.count)
                     * static_cast<std::size_t>(stage.unit.stages),
                 0)
    {
    }

    /**
     * Process one batch whose inputs are ready at `ready`; returns
     * its completion time. Initiations are FCFS over the bank's
     * pipeline slots.
     */
    Time
    process(Time ready)
    {
        // Earliest-available pipeline slot.
        std::size_t best = 0;
        for (std::size_t i = 1; i < slots_.size(); ++i) {
            if (slots_[i] < slots_[best])
                best = i;
        }
        const Time start = std::max(ready, slots_[best]);
        // The slot frees one initiation interval later; the batch
        // itself completes after the full unit latency.
        slots_[best] = start + interval_;
        return start + latency_;
    }

  private:
    Time latency_;
    Time interval_;
    std::vector<Time> slots_;
};

} // namespace farm_detail

/**
 * Simulate `candidates` encoded-ancilla candidates through the
 * factory pipeline.
 *
 * @param factory    the sized design (unit counts, latencies)
 * @param candidates number of 7-qubit candidates to push through
 * @param seed       RNG seed for verification post-selection
 */
inline FarmSimResult
simulateZeroFactory(const ZeroFactory &factory, int candidates,
                    std::uint64_t seed = 1)
{
    using farm_detail::StageBank;
    if (candidates < 6)
        fatal("simulateZeroFactory: need at least 6 candidates");

    const auto &stages = factory.stages();
    // Stage order per ZeroFactory: prep, cx, cat, verify, correct.
    StageBank prep(stages[0]);
    StageBank cx(stages[1]);
    StageBank cat(stages[2]);
    StageBank verify(stages[3]);
    StageBank correct(stages[4]);

    Rng rng(seed);
    const double discard_rate = 1.0 - factory.acceptRate();
    FarmSimResult result;

    // Verified candidates waiting to be grouped in threes for the
    // correction stage (A corrected by B and C).
    std::vector<Time> verified_ready;
    Time last_output = 0;
    Time first_batch_output = 0;
    std::uint64_t outputs_before_warmup = 0;
    const int warmup = std::max(2, candidates / 10);

    for (int i = 0; i < candidates; ++i) {
        // Ten physical qubits per candidate: seven for the encode
        // network, three for its verification cat state.
        Time qubits = 0;
        for (int q = 0; q < 10; ++q)
            qubits = std::max(qubits, prep.process(0));

        const Time encoded = cx.process(qubits);
        const Time cat_ready = cat.process(qubits);
        const Time checked =
            verify.process(std::max(encoded, cat_ready));

        // Verification post-selection: one coin per candidate.
        if (rng.bernoulli(discard_rate)) {
            ++result.discarded;
            continue;
        }
        verified_ready.push_back(checked);

        if (verified_ready.size() == 3) {
            const Time inputs = std::max(
                {verified_ready[0], verified_ready[1],
                 verified_ready[2]});
            const Time done = correct.process(inputs);
            verified_ready.clear();
            ++result.produced;
            if (result.produced == 1) {
                result.firstOutput = done;
                first_batch_output = done;
            }
            if (result.produced
                <= static_cast<std::uint64_t>(warmup)) {
                ++outputs_before_warmup;
                first_batch_output = done;
            }
            last_output = std::max(last_output, done);
        }
    }

    const std::uint64_t steady =
        result.produced - outputs_before_warmup;
    if (steady > 0 && last_output > first_batch_output) {
        result.throughput = static_cast<double>(steady)
            / toMs(last_output - first_batch_output);
    }
    return result;
}

} // namespace qc

#endif // QC_TESTS_FARM_SIM_HH
