/**
 * @file
 * Width dispatch table for the batch Monte Carlo worker.
 */

#include <stdexcept>

#include "error/simd/BatchEngineWidths.hh"

namespace qc {

std::unique_ptr<BatchWorkerBase>
makeBatchWorker(simd::Width width, const ErrorParams &errors,
                const MovementModel &movement,
                CorrectionSemantics semantics, int words)
{
    switch (width) {
    case simd::Width::W64:
        return batch_widths::makeW64(errors, movement, semantics,
                                     words);
    case simd::Width::W128:
        return batch_widths::makeW128(errors, movement, semantics,
                                      words);
    case simd::Width::W256:
        return batch_widths::makeW256(errors, movement, semantics,
                                      words);
    case simd::Width::W512:
        return batch_widths::makeW512(errors, movement, semantics,
                                      words);
    case simd::Width::Auto:
        break;
    }
    throw std::invalid_argument(
        "makeBatchWorker: width must be resolved (non-Auto)");
}

} // namespace qc
