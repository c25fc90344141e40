/**
 * @file
 * C99-compliant ldexpf for the PIM core.
 *
 * The L-LUT family multiplies by powers of two during address
 * generation. A general float multiply is very expensive on a PIM core
 * without an FPU, but multiplying by 2^n only manipulates the exponent
 * field. The UPMEM runtime does not provide ldexpf, so the paper
 * implements it in accordance with the C99 standard (Section 3.2.2);
 * this is that implementation, instrumented with its instruction count.
 *
 * Semantics match C99 ldexpf: NaN and infinity pass through, zero keeps
 * its sign, overflow returns +-infinity, underflow produces subnormals
 * or signed zero, and subnormal inputs scale exactly.
 *
 * The bodies are sink-templates (inlined by the batch execution path);
 * the InstrSink* entry points instantiate them with SinkRef. This
 * header also defines the ldexp op of both lanes (softfloat_lanes.h):
 * the element lane's is pimLdexpT, the vector lane's its exponent-field
 * path in every lane, with the lanes off that path marked slow.
 */

#ifndef TPL_TRANSPIM_LDEXP_H
#define TPL_TRANSPIM_LDEXP_H

#include <bit>

#include "common/bitops.h"
#include "common/instr_sink.h"
#include "softfloat/softfloat_lanes.h"

namespace tpl {
namespace transpim {

namespace ldexp_detail {

/** Fast path: one exponent-field add plus range checks. */
inline constexpr uint32_t fastPathCost = 10;

/** Extra work to normalize a subnormal input. */
inline constexpr uint32_t subnormalInCost = 6;

/** Extra work to denormalize + round an underflowing result. */
inline constexpr uint32_t underflowCost = 14;

} // namespace ldexp_detail

/** Compute arg * 2^exp with C99 ldexpf semantics (sink-template). */
template <class S>
inline float
pimLdexpT(float arg, int exp, S& sink)
{
    using namespace ldexp_detail;
    sink.note(OpClass::Ldexp);
    uint32_t bits = floatBits(arg);
    uint32_t sign = bits & 0x80000000u;
    int e = static_cast<int>(ieeeExponent(bits));
    uint32_t m = ieeeMantissa(bits);

    if (e == 0xff) {
        sink.charge(6);
        return arg; // NaN or +-inf pass through
    }
    if (e == 0 && m == 0) {
        sink.charge(6);
        return arg; // +-0 keeps its sign
    }

    if (e == 0) {
        // Subnormal input: normalize so the implicit bit is explicit.
        sink.charge(subnormalInCost);
        int s = countLeadingZeros32(m) - 8;
        m <<= s;
        e = 1 - s;
    } else {
        m |= 0x800000u;
    }

    int64_t ne = static_cast<int64_t>(e) + exp;
    if (ne >= 0xff) {
        sink.charge(fastPathCost);
        return bitsToFloat(sign | ieeePosInf); // overflow
    }
    if (ne >= 1) {
        sink.charge(fastPathCost);
        return bitsToFloat(sign |
                           ieeePack(0, static_cast<uint32_t>(ne),
                                    m & 0x7fffffu));
    }

    // Underflow: denormalize with round-to-nearest-even.
    sink.charge(underflowCost);
    int shift = static_cast<int>(1 - ne);
    if (shift > 24)
        return bitsToFloat(sign); // rounds to signed zero
    uint32_t keep = m >> shift;
    uint32_t rem = m & ((1u << shift) - 1u);
    uint32_t half = 1u << (shift - 1);
    if (rem > half || (rem == half && (keep & 1u)))
        ++keep;
    // If rounding carried into bit 23 the packed exponent field becomes
    // 1 automatically (smallest normal), which is correct.
    return bitsToFloat(sign | keep);
}

/** Binary64 variant: arg * 2^exp with C99 ldexp semantics. */
template <class S>
inline double
pimLdexp64T(double arg, int exp, S& sink)
{
    using namespace ldexp_detail;
    sink.note(OpClass::Ldexp);
    uint64_t bits = std::bit_cast<uint64_t>(arg);
    uint64_t sign = bits & (1ull << 63);
    int e = static_cast<int>((bits >> 52) & 0x7ffull);
    uint64_t m = bits & 0xfffffffffffffull;

    if (e == 0x7ff) {
        sink.charge(6);
        return arg; // NaN or +-inf
    }
    if (e == 0 && m == 0) {
        sink.charge(6);
        return arg; // +-0
    }

    if (e == 0) {
        sink.charge(subnormalInCost + 4);
        int s = countLeadingZeros64(m) - 11;
        m <<= s;
        e = 1 - s;
    } else {
        m |= 1ull << 52;
    }

    int64_t ne = static_cast<int64_t>(e) + exp;
    if (ne >= 0x7ff) {
        sink.charge(fastPathCost + 4);
        return std::bit_cast<double>(sign | (0x7ffull << 52)); // inf
    }
    if (ne >= 1) {
        sink.charge(fastPathCost + 4);
        return std::bit_cast<double>(
            sign | (static_cast<uint64_t>(ne) << 52) |
            (m & 0xfffffffffffffull));
    }

    sink.charge(underflowCost + 6);
    int shift = static_cast<int>(1 - ne);
    if (shift > 53)
        return std::bit_cast<double>(sign); // signed zero
    uint64_t keep = m >> shift;
    uint64_t rem = m & ((1ull << shift) - 1ull);
    uint64_t half = 1ull << (shift - 1);
    if (rem > half || (rem == half && (keep & 1ull)))
        ++keep;
    return std::bit_cast<double>(sign | keep);
}

/** Compute arg * 2^exp with C99 ldexpf semantics. */
float pimLdexp(float arg, int exp, InstrSink* sink = nullptr);

/** Binary64 variant: arg * 2^exp with C99 ldexp semantics. */
double pimLdexp64(double arg, int exp, InstrSink* sink = nullptr);

} // namespace transpim

namespace sf {

/** The element lane's ldexp: pimLdexpT. */
template <class S>
inline float
ElemLane<S>::ldexp(float a, int32_t k)
{
    return transpim::pimLdexpT(a, k, sink_);
}

/**
 * The vector lane's ldexp: pimLdexpT(a, k)'s exponent-field path in
 * every lane. Where @p a is normal and a * 2^k stays normal, that
 * path's value, with its charge (fastPathCost) and note. Lanes off
 * that path (a zero, subnormal, inf or NaN input; underflow; overflow)
 * are set in slow, and their values are garbage.
 */
template <int W>
inline typename VecLane<W>::Float
VecLane<W>::ldexp(const Float& a, const Int& k)
{
    charge(transpim::ldexp_detail::fastPathCost);
    note(OpClass::Ldexp);
    Float out;
    forRegs([&](int i) {
        const VBits bits = reinterpret_cast<VBits>(a.r[i]);
        const VBits e = (bits >> 23) & 0xffu;
        // e + k in unsigned lanes lands in [1, 254] exactly when the
        // true sum does, for any int32 k: the wrap moves it out of that
        // range.
        const VBits shift = reinterpret_cast<VBits>(k.r[i]);
        slow.r[i] |= reinterpret_cast<VBits>(e - 1u >= 0xfeu) |
                     reinterpret_cast<VBits>(e + shift - 1u >= 0xfeu);
        out.r[i] = reinterpret_cast<VFloat>(bits + (shift << 23));
    });
    return out;
}

} // namespace sf
} // namespace tpl

#endif // TPL_TRANSPIM_LDEXP_H
