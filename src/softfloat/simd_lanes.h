/**
 * @file
 * Lane-width-generic SIMD support for the batched softfloat paths.
 *
 * The vector kernels are written against GCC/Clang vector extensions
 * (`__attribute__((vector_size)))`) instead of per-ISA intrinsics: one
 * kernel compiles to SSE2, AVX2 or NEON depending on the target flags,
 * and to scalar lowering everywhere else. A register is never wider
 * than simdLanes: passing or returning a wider vector by value changes
 * the calling convention (GCC's -Wpsabi), so a block of more lanes
 * holds several registers. The lane path
 * is valid because the binary32 softfloat tier is bit-identical to
 * host IEEE-754 arithmetic under round-to-nearest-even for every
 * non-NaN result (verified exhaustively by the softfloat test tier);
 * the only divergence — NaN payloads, where softfloat always returns
 * the canonical quiet NaN 0x7fc00000 — is repaired by patching
 * NaN-result lanes after the vector op (softfloat_lanes.h).
 *
 * The library already requires GCC or Clang (`unsigned __int128`,
 * `__builtin_ctzll`), so the lane path is always compiled; a target
 * without vector units gets the extensions' scalar lowering. The
 * scalar cores in softfloat_core.h still handle each batch's tail.
 */

#ifndef TPL_SOFTFLOAT_SIMD_LANES_H
#define TPL_SOFTFLOAT_SIMD_LANES_H

#include <cstdint>

namespace tpl {
namespace sf {

/** Lanes per vector: 8 with AVX/AVX2, else 4 (SSE2/NEON/generic). */
#if defined(__AVX2__) || defined(__AVX__)
inline constexpr int simdLanes = 8;
#else
inline constexpr int simdLanes = 4;
#endif

/** The register types of @p W lanes: binary32, 32-bit bit patterns and
 * signed 32-bit lanes. Width 1 compiles to scalar code. */
template <int W>
struct SimdRegs
{
    typedef float Float __attribute__((vector_size(W * 4)));
    typedef uint32_t Bits __attribute__((vector_size(W * 4)));
    typedef int32_t Int __attribute__((vector_size(W * 4)));
};

/** One SIMD register of binary32, bit-pattern and signed lanes. */
using VFloat = SimdRegs<simdLanes>::Float;
using VBits = SimdRegs<simdLanes>::Bits;
using VInt = SimdRegs<simdLanes>::Int;

} // namespace sf
} // namespace tpl

#endif // TPL_SOFTFLOAT_SIMD_LANES_H
