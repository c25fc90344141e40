/**
 * @file
 * Range reduction / extension operations (Section 2.2.3, Figure 8).
 *
 * Both CORDIC and lookup tables only cover limited input ranges; these
 * helpers perform the per-function conversions that extend them:
 * periodicity for trigonometric functions, exponent/mantissa splits for
 * exp / log / sqrt. Their costs differ widely between functions - the
 * trigonometric reduction needs real float arithmetic while the
 * exponent splits are almost free bit manipulation - which is exactly
 * what the paper's Figure 8 shows. Each helper is instrumented so the
 * figure can be regenerated.
 *
 * The bodies are sink-templates over the non-virtual Sink shape so the
 * batch execution path inlines them; the InstrSink* entry points are
 * the same templates instantiated with SinkRef. The exp split, which
 * the polynomial exp runs in SIMD lanes too, is written once over a
 * lane type (softfloat_lanes.h); splitExpT is its element lane.
 */

#ifndef TPL_TRANSPIM_RANGE_H
#define TPL_TRANSPIM_RANGE_H

#include "common/bitops.h"
#include "common/fixed_point.h"
#include "common/instr_sink.h"
#include "softfloat/softfloat_core.h"
#include "softfloat/softfloat_lanes.h"
#include "transpim/ldexp.h"

namespace tpl {
namespace transpim {

namespace range_detail {

inline constexpr float kTwoPi = 6.28318530717958647692f;
inline constexpr float kPi = 3.14159265358979323846f;
inline constexpr float kHalfPi = 1.57079632679489661923f;
inline constexpr float kInvTwoPi = 0.15915494309189533577f;
inline constexpr float kLog2e = 1.44269504088896340736f;

// Cody-Waite split of ln2: hi has a short mantissa so k*ln2Hi is exact
// for the k range of interest, lo holds the residual.
inline constexpr float kLn2Hi = 0.693145751953125f; // 0x1.62e3p-1
inline constexpr float kLn2Lo = 1.42860677e-06f;    // ln2 - kLn2Hi

} // namespace range_detail

/** Result of quadrant reduction for trigonometric CORDIC. */
struct QuadrantReduced
{
    float r; ///< angle in [0, pi/2]
    int q;   ///< quadrant 0..3
};

/** Result of the exponential split x = k*ln2 + r, in a lane's values. */
template <class Int, class Float>
struct ExpSplitOf
{
    Int k;   ///< power-of-two exponent
    Float r; ///< residual in [0, ln2)
};

/** Result of the exponential split x = k*ln2 + r. */
using ExpSplit = ExpSplitOf<int, float>;

/** Result of the logarithm split x = m * 2^k, m in [1, 2). */
struct LogSplit
{
    int k;
    float m;
};

/** Result of the square-root split x = m * 4^k, m in [0.5, 2). */
struct SqrtSplit
{
    int k;
    float m;
};

/** Reduce x into [0, 2*pi) using the function's periodicity. */
template <class S>
inline float
reduceTwoPiT(float x, S& sink)
{
    using namespace range_detail;
    // n = floor(x / 2pi); x - n * 2pi. One multiply by the reciprocal,
    // a float->int floor, an int->float, a multiply and a subtract.
    float t = sf::mulT(x, kInvTwoPi, sink);
    int32_t n = sf::toI32FloorT(t, sink);
    float fn = sf::fromI32T(n, sink);
    return sf::subT(x, sf::mulT(fn, kTwoPi, sink), sink);
}

/**
 * Reduce an angle in [0, 2*pi) to the first quadrant via conditional
 * subtraction (cheaper than a multiply-based reduction on a PIM core).
 */
template <class S>
inline QuadrantReduced
reduceQuadrantT(float x, S& sink)
{
    using namespace range_detail;
    // Conditional subtraction: at most two compares and two subtracts,
    // cheaper than the multiply-based reduction on a PIM core.
    QuadrantReduced out{x, 0};
    if (sf::leT(kPi, out.r, sink)) {
        out.r = sf::subT(out.r, kPi, sink);
        out.q += 2;
    }
    if (sf::leT(kHalfPi, out.r, sink)) {
        out.r = sf::subT(out.r, kHalfPi, sink);
        out.q += 1;
    }
    sink.charge(2); // quadrant bookkeeping
    return out;
}

/** Split for exp in lane L (softfloat_lanes.h): e^x = 2^k * e^r. */
template <class L>
inline ExpSplitOf<typename L::Int, typename L::Float>
splitExp(L& lane, typename L::Float x)
{
    using namespace range_detail;
    const auto k = lane.toI32Floor(lane.mul(x, lane.splat(kLog2e)));
    const auto fk = lane.fromI32(k);
    // Cody-Waite: r = (x - k*ln2Hi) - k*ln2Lo keeps r accurate even
    // though k*ln2 is not exactly representable.
    const auto r = lane.sub(x, lane.mul(fk, lane.splat(kLn2Hi)));
    return {k, lane.sub(r, lane.mul(fk, lane.splat(kLn2Lo)))};
}

/** Split for exp: e^x = 2^k * e^r. */
template <class S>
inline ExpSplit
splitExpT(float x, S& sink)
{
    sf::ElemLane<S> lane(sink);
    return splitExp(lane, x);
}

/**
 * Split for log: log x = k*ln2 + log m. Pure bit manipulation for
 * normal inputs; subnormals are normalized first.
 * @pre x > 0 and finite.
 */
template <class S>
inline LogSplit
splitLogT(float x, S& sink)
{
    uint32_t bits = floatBits(x);
    int e = static_cast<int>(ieeeExponent(bits));
    int k0 = 0;
    if (e == 0) {
        // Subnormal: normalize by scaling with 2^24 first.
        x = pimLdexpT(x, 24, sink);
        bits = floatBits(x);
        e = static_cast<int>(ieeeExponent(bits));
        k0 = -24;
    }
    sink.charge(6); // exponent extract, rebias, mantissa repack
    LogSplit out;
    out.k = e - ieeeBias + k0;
    out.m = bitsToFloat(ieeePack(0, ieeeBias, ieeeMantissa(bits)));
    return out;
}

/**
 * Split for sqrt: sqrt x = 2^k * sqrt m. The [0.5, 2) mantissa range
 * keeps the hyperbolic-vectoring CORDIC within its convergence bound.
 * @pre x > 0 and finite.
 */
template <class S>
inline SqrtSplit
splitSqrtT(float x, S& sink)
{
    uint32_t bits = floatBits(x);
    int e = static_cast<int>(ieeeExponent(bits));
    int k0 = 0;
    if (e == 0) {
        // Subnormal: scale by 2^24 (even power, so k adjusts by 12).
        x = pimLdexpT(x, 24, sink);
        bits = floatBits(x);
        e = static_cast<int>(ieeeExponent(bits));
        k0 = -12;
    }
    sink.charge(8); // extract, halve exponent, repack
    int eUnb = e - ieeeBias;
    int k = (eUnb + 1) >> 1; // ceil(e/2): m lands in [0.5, 2)
    int me = eUnb - 2 * k;   // 0 or -1
    SqrtSplit out;
    out.k = k + k0;
    out.m = bitsToFloat(ieeePack(
        0, static_cast<uint32_t>(ieeeBias + me), ieeeMantissa(bits)));
    return out;
}

/** Fixed-point reduction of x into [0, 2*pi) (Q3.28 pipeline). */
template <class S>
inline Fixed
reduceTwoPiFixedT(Fixed x, S& sink)
{
    // Q3.28 holds < 8, so at most one conditional add/subtract of 2*pi
    // is ever needed; the float pipeline performs the wide reduction.
    sink.charge(4);
    int32_t twoPi = fixedTwoPi().raw();
    int32_t v = x.raw();
    if (v < 0)
        v += twoPi;
    if (v >= twoPi)
        v -= twoPi;
    return Fixed::fromRaw(v);
}

/** Reduce x into [0, 2*pi) using the function's periodicity. */
float reduceTwoPi(float x, InstrSink* sink);

/**
 * Reduce an angle in [0, 2*pi) to the first quadrant via conditional
 * subtraction (cheaper than a multiply-based reduction on a PIM core).
 */
QuadrantReduced reduceQuadrant(float x, InstrSink* sink);

/** Split for exp: e^x = 2^k * e^r. */
ExpSplit splitExp(float x, InstrSink* sink);

/**
 * Split for log: log x = k*ln2 + log m. Pure bit manipulation for
 * normal inputs; subnormals are normalized first.
 * @pre x > 0 and finite.
 */
LogSplit splitLog(float x, InstrSink* sink);

/**
 * Split for sqrt: sqrt x = 2^k * sqrt m. The [0.5, 2) mantissa range
 * keeps the hyperbolic-vectoring CORDIC within its convergence bound.
 * @pre x > 0 and finite.
 */
SqrtSplit splitSqrt(float x, InstrSink* sink);

/** Fixed-point reduction of x into [0, 2*pi) (Q3.28 pipeline). */
Fixed reduceTwoPiFixed(Fixed x, InstrSink* sink);

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_RANGE_H
