/**
 * @file
 * Word-width abstraction for the bit-packed Monte Carlo engines.
 *
 * The batch Pauli-frame algebra is pure XOR/AND/NOT over arrays of
 * 64-bit words, so widening it to 128/256/512 bits is a matter of
 * processing kLanes words per step with the same operators. Each Ops
 * type below packages a vector value type `V` (kLanes x uint64),
 * unaligned load/store, and the bitwise operators the engine needs.
 *
 *  - WordOps: the 1-lane reference (plain uint64_t), i.e. exactly
 *    the pre-SIMD engine; also the portable path and the tail
 *    handler of every wider width.
 *  - VecOps<N>: GCC/Clang vector extensions (`vector_size`; the
 *    build requires one of the two). The compiler lowers the
 *    generic operators to whatever the TU's target flags allow
 *    (SSE2/AVX2/AVX-512), so no intrinsics headers are needed.
 *
 * Bit-identity across widths is guaranteed by construction: the
 * engine keeps every RNG-consuming loop ordered per 64-bit word and
 * only blocks pure-bitwise loops by kLanes, through spans().
 */

#ifndef QC_COMMON_SIMD_SIMDOPS_HH
#define QC_COMMON_SIMD_SIMDOPS_HH

#include <cstdint>
#include <cstring>

namespace qc::simd {

/** 1-lane reference ops: plain uint64_t, the original 64-bit path. */
struct WordOps
{
    static constexpr int kLanes = 1;
    using V = std::uint64_t;

    static V
    load(const std::uint64_t *p)
    {
        return *p;
    }

    static void
    store(std::uint64_t *p, V v)
    {
        *p = v;
    }

    static V
    zero()
    {
        return 0;
    }
};

/**
 * Vector-extension ops: N x uint64 processed per step. The TU's
 * target flags decide the instruction selection (-mavx2 lowers
 * VecOps<4> to 256-bit ymm ops; without it the compiler splits into
 * 128-bit halves — still correct, just narrower).
 */
template <int N>
struct VecOps
{
    static constexpr int kLanes = N;

    typedef std::uint64_t V
        __attribute__((vector_size(8 * N), aligned(8)));

    static V
    load(const std::uint64_t *p)
    {
        V v;
        std::memcpy(&v, p, sizeof(V));
        return v;
    }

    static void
    store(std::uint64_t *p, V v)
    {
        std::memcpy(p, &v, sizeof(V));
    }

    static V
    zero()
    {
        return V{};
    }
};

/**
 * Run `body(ops, w)` over a word range: full Ops-wide blocks first,
 * then a 1-lane tail. The body is generic over the ops policy, so
 * each pure-bitwise loop is written once and lowered at both widths
 * (when Ops is WordOps the first loop already covers everything).
 */
template <class Ops, class F>
inline void
spans(int words, F &&body)
{
    int w = 0;
    for (; w + Ops::kLanes <= words; w += Ops::kLanes)
        body(Ops{}, w);
    for (; w < words; ++w)
        body(WordOps{}, w);
}

} // namespace qc::simd

#endif // QC_COMMON_SIMD_SIMDOPS_HH
