/**
 * @file
 * SIMD width dispatch — the only translation unit allowed to query
 * CPU features. The per-width engine TUs advertise the ISA they
 * were compiled to require via QC_SIMD_W*_ISA compile definitions
 * set alongside the per-file target flags in CMakeLists.txt, so
 * this file cannot drift out of sync with the build: forcing a
 * width whose ISA the CPU lacks fails with a clear error instead of
 * executing an illegal instruction.
 */

#include "common/simd/SimdDispatch.hh"

#include <cstdlib>
#include <cstring>
#include <stdexcept>

// ISA each width engine TU was compiled to require. Empty means the
// TU uses only the binary's baseline target and runs anywhere the
// binary does. CMake overrides these per-file when it applies
// -mavx2 / -mavx512f to the corresponding engine TU.
#ifndef QC_SIMD_W256_ISA
#define QC_SIMD_W256_ISA ""
#endif
#ifndef QC_SIMD_W512_ISA
#define QC_SIMD_W512_ISA ""
#endif

namespace qc::simd {

namespace {

bool
cpuHas(const char *isa)
{
    if (isa == nullptr || *isa == '\0')
        return true;
#if (defined(__x86_64__) || defined(__i386__)) \
    && (defined(__GNUC__) || defined(__clang__))
    if (std::strcmp(isa, "avx2") == 0)
        return __builtin_cpu_supports("avx2") != 0;
    if (std::strcmp(isa, "avx512f") == 0)
        return __builtin_cpu_supports("avx512f") != 0;
#endif
    // Unknown requirement on this platform: refuse rather than risk
    // SIGILL.
    return false;
}

int
lanesOf(Width w)
{
    switch (w) {
    case Width::W64:
        return 1;
    case Width::W128:
        return 2;
    case Width::W256:
        return 4;
    case Width::W512:
        return 8;
    case Width::Auto:
        break;
    }
    return 1;
}

} // namespace

const char *
widthName(Width w)
{
    switch (w) {
    case Width::Auto:
        return "auto";
    case Width::W64:
        return "64";
    case Width::W128:
        return "128";
    case Width::W256:
        return "256";
    case Width::W512:
        return "512";
    }
    return "?";
}

bool
parseWidth(const std::string &name, Width *out)
{
    if (name == "auto")
        *out = Width::Auto;
    else if (name == "64")
        *out = Width::W64;
    else if (name == "128")
        *out = Width::W128;
    else if (name == "256")
        *out = Width::W256;
    else if (name == "512")
        *out = Width::W512;
    else
        return false;
    return true;
}

const char *
widthRequiredIsa(Width w)
{
    switch (w) {
    case Width::W256:
        return QC_SIMD_W256_ISA;
    case Width::W512:
        return QC_SIMD_W512_ISA;
    default:
        return "";
    }
}

bool
widthSupported(Width w)
{
    return w != Width::Auto && cpuHas(widthRequiredIsa(w));
}

Width
resolveWidth(Width requested, int maxLanes)
{
    Width w = requested;
    bool forced = false;
    if (w == Width::Auto) {
        const char *env = std::getenv("QC_FORCE_WIDTH");
        if (env != nullptr && *env != '\0') {
            if (!parseWidth(env, &w))
                throw std::runtime_error(
                    std::string("QC_FORCE_WIDTH: unrecognized width '")
                    + env
                    + "' (expected 64|128|256|512|auto)");
            forced = w != Width::Auto;
        }
    } else {
        forced = true;
    }
    if (w == Width::Auto) {
        // Widest supported width whose lanes a batch can fill; W64
        // needs no ISA beyond the binary's own, so it always runs.
        w = Width::W64;
        for (Width cand : {Width::W512, Width::W256, Width::W128}) {
            if ((maxLanes <= 0 || lanesOf(cand) <= maxLanes)
                && widthSupported(cand)) {
                w = cand;
                break;
            }
        }
    }
    if (!widthSupported(w))
        throw std::runtime_error(
            std::string("SIMD width ") + widthName(w)
            + (forced ? " (forced)" : "") + " requires ISA '"
            + widthRequiredIsa(w)
            + "' which this CPU does not support");
    return w;
}

const char *
dispatchedIsa()
{
    const char *isa = widthRequiredIsa(resolveWidth(Width::Auto));
    if (*isa != '\0')
        return isa;
#if defined(__x86_64__) || defined(__i386__)
    return "sse2";
#else
    return "portable";
#endif
}

} // namespace qc::simd
