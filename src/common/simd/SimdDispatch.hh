/**
 * @file
 * Runtime SIMD width selection for the batch Monte Carlo engine.
 *
 * Engine widths are lane counts over 64-bit words; the per-width
 * engine translation units are compiled with the matching target
 * flags (see CMakeLists.txt) and registered with the ISA they
 * require. Selection order:
 *
 *   1. `QC_FORCE_WIDTH` environment override
 *      ("64" | "128" | "256" | "512"), the CI width-dispatch
 *      matrix seam. Forcing a width whose ISA the
 *      CPU lacks is a hard error (loud, instead of SIGILL later).
 *   2. Widest built width the running CPU supports (W64 always
 *      runs).
 *
 * All widths produce bit-identical results — the RNG stream to
 * trial-lane assignment is width-invariant — so dispatch is purely
 * a throughput decision.
 *
 * This header plus SimdDispatch.cc are the only places allowed to
 * query CPU features (`__builtin_cpu_supports`) or include raw
 * intrinsics headers; qclint's `simd-seam` rule enforces that.
 */

#ifndef QC_COMMON_SIMD_SIMDDISPATCH_HH
#define QC_COMMON_SIMD_SIMDDISPATCH_HH

#include <string>

namespace qc::simd {

/** Engine width: lanes of 64 trials advanced per vector op. */
enum class Width
{
    Auto,    ///< pick the widest supported at runtime
    W64,     ///< plain uint64_t reference path
    W128,
    W256,
    W512,
};

/** Human-readable name ("auto", "64", ... "512"). */
const char *widthName(Width w);

/**
 * Parse a width name as accepted by QC_FORCE_WIDTH. Returns true on
 * success. Accepts "auto", "64", "128", "256", "512".
 */
bool parseWidth(const std::string &name, Width *out);

/**
 * ISA feature string a width's engine TU was compiled to require
 * ("" when it runs on any CPU the binary runs on, "avx2", "avx512f").
 */
const char *widthRequiredIsa(Width w);

/** Whether the running CPU can execute the given width's engine. */
bool widthSupported(Width w);

/**
 * Resolve Auto (env override, then widest supported). Throws
 * std::runtime_error on an unparseable QC_FORCE_WIDTH value or a
 * forced width the CPU cannot execute. Non-Auto inputs are
 * validated the same way and returned unchanged.
 *
 * maxLanes > 0 caps the *automatically* chosen width (a batch of
 * wordsPerQubit words gains nothing from lanes it cannot fill);
 * explicitly requested or QC_FORCE_WIDTH widths are never clamped —
 * every width is correct at any batch size, just not faster.
 */
Width resolveWidth(Width requested, int maxLanes = 0);

/**
 * The ISA the resolved auto width actually uses on this machine —
 * recorded in benchmark output so a committed baseline's rates can
 * be interpreted ("avx512f", "avx2", "sse2", or "portable").
 */
const char *dispatchedIsa();

} // namespace qc::simd

#endif // QC_COMMON_SIMD_SIMDDISPATCH_HH
