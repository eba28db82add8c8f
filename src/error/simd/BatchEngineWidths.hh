/**
 * @file
 * Per-width batch-worker factories, one per translation unit so
 * each can carry its own target flags (see CMakeLists.txt). Only
 * BatchEngineFactory.cc includes this.
 */

#ifndef QC_ERROR_SIMD_BATCH_ENGINE_WIDTHS_HH
#define QC_ERROR_SIMD_BATCH_ENGINE_WIDTHS_HH

#include "error/BatchEngine.hh"

namespace qc::batch_widths {

std::unique_ptr<BatchWorkerBase>
makeW64(const ErrorParams &errors, const MovementModel &movement,
        CorrectionSemantics semantics, int words);

std::unique_ptr<BatchWorkerBase>
makeW128(const ErrorParams &errors, const MovementModel &movement,
         CorrectionSemantics semantics, int words);

std::unique_ptr<BatchWorkerBase>
makeW256(const ErrorParams &errors, const MovementModel &movement,
         CorrectionSemantics semantics, int words);

std::unique_ptr<BatchWorkerBase>
makeW512(const ErrorParams &errors, const MovementModel &movement,
         CorrectionSemantics semantics, int words);

} // namespace qc::batch_widths

#endif // QC_ERROR_SIMD_BATCH_ENGINE_WIDTHS_HH
