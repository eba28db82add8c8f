/**
 * @file
 * Batched (bit-parallel) Monte Carlo estimation of the encoded-zero
 * ancilla preparation strategies and the pi/8 conversion: the
 * 64-trials-per-word-op production engine and the one front door
 * for every estimate, naive or stratified.
 *
 * Semantics match the scalar reference (AncillaPrepSimulator::
 * simulateOnce) trial-for-trial in distribution: the same circuits,
 * the same error injection sites and Pauli kinds, the same
 * verification-retry and correction-discard control flow. Per-trial
 * divergence (a block failing verification, a correction stage
 * detecting an error) is handled with active-trial masks: finished
 * trials are tallied by popcount and dropped from the mask, while
 * stragglers rerun in lockstep until the batch drains.
 *
 * estimate()/estimatePi8() shard the batch sequence across worker
 * threads. Each 64*wordsPerQubit-trial batch owns an independent RNG
 * stream split deterministically from the run seed, so results are
 * bit-identical for a given (seed, trial count) regardless of thread
 * count or scheduling.
 */

#ifndef QC_ERROR_BATCH_ANCILLA_SIM_HH
#define QC_ERROR_BATCH_ANCILLA_SIM_HH

#include <cstdint>

#include "common/simd/SimdDispatch.hh"
#include "error/AncillaSim.hh"
#include "error/BatchPauliFrame.hh"
#include "error/ImportanceSampler.hh"

namespace qc {

/** Tuning knobs for the batched engine. */
struct BatchSimConfig
{
    /**
     * Words per qubit bit-plane: each batch runs 64 * wordsPerQubit
     * concurrent trials. A few thousand trials per batch amortizes
     * the per-batch setup and per-site RNG bookkeeping across the
     * SIMD lanes (the frame still fits L1 at 64 words) without
     * inflating straggler rework in the retry loops; measured
     * throughput on the basic-prep workload more than doubles going
     * from 4 to 64 words at every width.
     */
    int wordsPerQubit = 64;

    /**
     * Worker threads sharding the batch sequence (or, for the
     * stratified estimates, the strata). 0 selects
     * std::thread::hardware_concurrency() (resolveThreads in
     * common/ParallelFor.hh). Results are independent of this
     * value.
     */
    int threads = 1;

    /**
     * SIMD width of the frame loops. Auto resolves to the
     * QC_FORCE_WIDTH environment override if set, else the widest
     * width this CPU supports whose lanes a batch can fill. Every
     * width produces bit-identical results; this knob only trades
     * throughput.
     */
    simd::Width width = simd::Width::Auto;
};

/**
 * Bit-parallel batched counterpart of AncillaPrepSimulator.
 *
 * Successive estimate() calls on one instance consume a
 * deterministic sequence of run seeds, so repeated estimates are
 * independent but a freshly constructed instance always reproduces
 * the same sequence.
 */
class BatchAncillaSim
{
  public:
    BatchAncillaSim(ErrorParams errors, MovementModel movement,
                    std::uint64_t seed,
                    CorrectionSemantics semantics =
                        CorrectionSemantics::DiscardOnSyndrome,
                    BatchSimConfig config = {});

    /** Batched equivalent of AncillaPrepSimulator::estimateScalar. */
    PrepEstimate estimate(ZeroPrepStrategy strategy,
                          std::uint64_t trials);

    /**
     * Batched equivalent of AncillaPrepSimulator::estimateScalarPi8
     * (only the verification tallies are reported).
     */
    PrepEstimate estimatePi8(std::uint64_t trials);

    /**
     * Rare-event importance-sampled estimate: stratify trials by
     * the number of injected (gate, movement) faults, weight each
     * stratum by its binomial prior, and combine per-stratum Wilson
     * intervals (see error/ImportanceSampler.hh for the estimator
     * math). Runs the scalar reference circuit under a fault
     * schedule, so its throughput is the scalar engine's, but
     * deep-subthreshold points get tight CIs at fixed cost where
     * naive MC would need billions of trials. Seeds draw from the
     * same seeder sequence as estimate(); sharded over
     * config.threads deterministically.
     */
    StratifiedEstimate estimateStratified(ZeroPrepStrategy strategy,
                                          const ImportanceConfig &config);

    /** Stratified counterpart of estimatePi8. */
    StratifiedEstimate
    estimateStratifiedPi8(const ImportanceConfig &config);

    /** Trials advanced per batch (64 * wordsPerQubit). */
    int batchTrials() const { return 64 * config_.wordsPerQubit; }

    /** The SIMD width estimate() will run at (resolves Auto). */
    simd::Width resolvedWidth() const;

  private:
    PrepEstimate run(ZeroPrepStrategy strategy, bool pi8,
                     std::uint64_t trials);

    ErrorParams errors_;
    MovementModel movement_;
    CorrectionSemantics semantics_;
    BatchSimConfig config_;
    Rng seeder_;
};

} // namespace qc

#endif // QC_ERROR_BATCH_ANCILLA_SIM_HH
