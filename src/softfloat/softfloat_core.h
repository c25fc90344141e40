/**
 * @file
 * Inlinable IEEE-754 binary32 soft-float cores, templated on the sink.
 *
 * This header holds the full unpack / operate / round-pack
 * implementation that used to live in softfloat.cc, refactored into
 * function templates over the non-virtual Sink shape (SinkRef,
 * BatchTally, NullSink — common/instr_sink.h). The public scalar API
 * in softfloat.h is exactly these templates instantiated with SinkRef,
 * so the classic entry points and the batch execution path share one
 * set of numeric cores and one set of charge sites: they cannot
 * diverge in either values or accounting.
 *
 * See softfloat.h for the semantic contract (bit-identical to host
 * IEEE-754 binary32 under round-to-nearest-even, canonical quiet NaN,
 * instruction charges calibrated to the UPMEM runtime).
 */

#ifndef TPL_SOFTFLOAT_SOFTFLOAT_CORE_H
#define TPL_SOFTFLOAT_SOFTFLOAT_CORE_H

#include <cstdint>
#include <utility>

#include "common/bitops.h"
#include "common/emu_int.h"
#include "common/fixed_point.h"
#include "common/instr_sink.h"

namespace tpl {
namespace sf {
namespace core {

/**
 * Call/return, argument marshalling and register save/restore overhead
 * of one emulated float routine in the runtime library.
 *
 * Calibration note: with these constants the per-operation instruction
 * counts land at roughly add ~65, mul ~175, div ~330, sqrt ~330, which
 * matches the measured single-DPU throughput ratios of the UPMEM
 * runtime's emulated float operations (PrIM characterization: float
 * add/mul/div peak throughput ratios of about 1 : 2.7 : 5.5). The
 * multiply overhead in particular reflects that the runtime routine
 * manages a 48-bit product across 32-bit register pairs.
 */
inline constexpr uint32_t callOverhead = 30;

/** Unpacking one operand: load, shifts, masks, subnormal test. */
inline constexpr uint32_t unpackCost = 4;

/** Special-value screening (NaN/inf/zero) per operation. */
inline constexpr uint32_t specialsCost = 4;

/** Round-and-pack epilogue: rounding add, tie fixup, pack, range test. */
inline constexpr uint32_t roundPackCost = 10;

/** Align/add/normalize core of addition or subtraction. */
inline constexpr uint32_t addCoreCost = 12;

/** Normalization of the product + sticky collection in multiply. */
inline constexpr uint32_t mulNormCost = 8;

/**
 * Wide-product management in the multiply routine: accumulating the
 * 48-bit significand product across 32-bit register pairs, carries,
 * and double-word shifts (see the calibration note above).
 */
inline constexpr uint32_t mulWideCost = 90;

/** Per-quotient-bit cost of the float-divide div_step loop. */
inline constexpr uint32_t divBitCost = 9;

/** Quotient bits produced by the float divide (24 + guard/sticky). */
inline constexpr uint32_t divBits = 31;

/** Per-result-bit cost of the digit-recurrence square root. */
inline constexpr uint32_t sqrtBitCost = 9;

/** Result bits produced by the square-root recurrence. */
inline constexpr uint32_t sqrtBits = 31;

/** Cost of an emulated float comparison (integer compare + sign fixups). */
inline constexpr uint32_t compareCost = 10;

/**
 * Cost of float<->int conversions. These are runtime-library calls on
 * the DPU (__fixsfsi / __floatsisf style): unpack or normalize, shift
 * by a data-dependent amount, round, clamp, plus call overhead.
 */
inline constexpr uint32_t convertCost = 30;

/** Constant SoftFloat-class charge of one add/sub core invocation. */
inline constexpr uint32_t addCharge = callOverhead + 2 * unpackCost +
                                      specialsCost + addCoreCost +
                                      roundPackCost;

/** Constant SoftFloat-class part of one multiply (IntMulDiv part is
 * data-dependent, through emuMul32T on the non-special path). */
inline constexpr uint32_t mulCharge = callOverhead + 2 * unpackCost +
                                      specialsCost + mulNormCost +
                                      mulWideCost + roundPackCost;

/** Constant SoftFloat-class charge of one divide. */
inline constexpr uint32_t divCharge = callOverhead + 2 * unpackCost +
                                      specialsCost +
                                      divBits * divBitCost +
                                      roundPackCost;

/** Constant SoftFloat-class charge of one square root. */
inline constexpr uint32_t sqrtCharge = callOverhead + unpackCost +
                                       specialsCost +
                                       sqrtBits * sqrtBitCost +
                                       roundPackCost;

struct Unpacked
{
    uint32_t sign; ///< sign bit
    int exp;       ///< biased exponent; may be <= 0 for subnormals
    uint32_t sig;  ///< bit 30 set when non-zero; bits 6..0 are precision
    bool isZero;
    bool isInf;
    bool isNan;
};

inline Unpacked
unpack(uint32_t bits)
{
    Unpacked u{};
    u.sign = ieeeSign(bits);
    uint32_t e = ieeeExponent(bits);
    uint32_t m = ieeeMantissa(bits);
    if (e == 0xff) {
        u.isInf = (m == 0);
        u.isNan = (m != 0);
        u.exp = 0xff;
        u.sig = 0;
        return u;
    }
    if (e == 0) {
        if (m == 0) {
            u.isZero = true;
            u.exp = 0;
            u.sig = 0;
            return u;
        }
        // Subnormal: normalize so that bit 30 is set. A subnormal's
        // value is m * 2^(-126-23); after shifting left by s its
        // effective biased exponent becomes 8 - s.
        int s = countLeadingZeros32(m) - 1;
        u.sig = m << s;
        u.exp = 8 - s;
        return u;
    }
    u.sig = (m | 0x800000u) << 7;
    u.exp = static_cast<int>(e);
    return u;
}

/** Right shift that ORs any lost non-zero bits into the result LSB. */
inline uint32_t
shiftRightJam32(uint32_t a, int dist)
{
    if (dist <= 0)
        return a;
    if (dist >= 31)
        return a != 0 ? 1 : 0;
    uint32_t shifted = a >> dist;
    uint32_t lost = a << (32 - dist);
    return shifted | (lost != 0 ? 1 : 0);
}

/**
 * Round (to nearest even) and pack a sign/exponent/significand triple.
 * Expects sig == 0 (signed zero) or sig normalized with bit 30 set;
 * handles overflow to infinity and underflow to subnormal/zero.
 */
inline float
roundPack(uint32_t sign, int exp, uint32_t sig)
{
    if (sig == 0)
        return bitsToFloat(sign << 31);

    if (exp <= 0) {
        // Subnormal (or underflow-to-zero) result: push the significand
        // down so the exponent field becomes 0, keeping stickiness.
        sig = shiftRightJam32(sig, 1 - exp);
        exp = 0;
    }

    uint32_t roundBits = sig & 0x7fu;
    uint32_t rounded = (sig + 0x40u) >> 7;
    if (roundBits == 0x40u)
        rounded &= ~1u; // tie: round to even
    if (rounded & 0x1000000u) {
        // Carry out of the 24-bit significand.
        rounded >>= 1;
        ++exp;
    }
    if (exp == 0 && (rounded & 0x800000u)) {
        // Subnormal rounded up to the smallest normal.
        exp = 1;
    }
    if (exp >= 0xff)
        return bitsToFloat(ieeePack(sign, 0xff, 0)); // overflow -> inf
    if (rounded == 0)
        return bitsToFloat(sign << 31);

    uint32_t mant = rounded & 0x7fffffu;
    return bitsToFloat(ieeePack(sign, static_cast<uint32_t>(exp), mant));
}

inline float
quietNan()
{
    return bitsToFloat(ieeeQuietNan);
}

/** A host IEEE result as the emulated cores return it: any NaN
 * becomes the canonical quiet NaN (the fast-value lane's patch). */
inline float
canonical(float r)
{
    return r != r ? quietNan() : r;
}

/** Magnitude addition of two same-sign unpacked operands. */
inline float
addMags(uint32_t sign, Unpacked a, Unpacked b)
{
    if (a.exp < b.exp || (a.exp == b.exp && a.sig < b.sig))
        std::swap(a, b);
    uint32_t sigB = shiftRightJam32(b.sig, a.exp - b.exp);
    uint32_t sum = a.sig + sigB;
    int exp = a.exp;
    if (sum & 0x80000000u) {
        sum = shiftRightJam32(sum, 1);
        ++exp;
    }
    return roundPack(sign, exp, sum);
}

/** Magnitude subtraction; sign is the sign of the larger magnitude. */
inline float
subMags(uint32_t sign, Unpacked a, Unpacked b)
{
    if (a.exp < b.exp || (a.exp == b.exp && a.sig < b.sig)) {
        std::swap(a, b);
        sign ^= 1u;
    }
    if (a.exp == b.exp && a.sig == b.sig)
        return 0.0f; // exact cancellation rounds to +0 under RNE

    uint32_t sigB = shiftRightJam32(b.sig, a.exp - b.exp);
    uint32_t diff = a.sig - sigB;
    int exp = a.exp;
    int s = countLeadingZeros32(diff) - 1;
    diff <<= s;
    exp -= s;
    return roundPack(sign, exp, diff);
}

/** Map binary32 bits onto a totally ordered signed integer line. */
inline int32_t
orderFloatBits(uint32_t bits)
{
    if (bits & 0x80000000u)
        return static_cast<int32_t>(0x80000000u - bits);
    return static_cast<int32_t>(bits);
}

inline bool
isNanBits(uint32_t bits)
{
    return ieeeExponent(bits) == 0xff && ieeeMantissa(bits) != 0;
}

/**
 * IntMulDiv charge of one scalar multiply, computed analytically: zero
 * on the special paths (NaN/inf/zero operands never reach the emulated
 * multiplier), else exactly what emuMul32T charges for the two 24-bit
 * significands. Used by the fast-value lane and the batched mulN so
 * their accounting matches the emulated core bit for bit.
 *
 * Two normal operands (the common case) take a closed form: a normal
 * significand's top byte holds the implicit bit, so its non-zero byte
 * count is 1 + (mantissa byte 1 != 0) + (mantissa byte 0 != 0). Zero,
 * subnormal, inf and NaN operands go through unpack().
 */
inline uint32_t
mulIntCharge(uint32_t bitsA, uint32_t bitsB)
{
    if (ieeeExponent(bitsA) - 1u < 0xfeu &&
        ieeeExponent(bitsB) - 1u < 0xfeu) {
        uint32_t ra = 1u + ((bitsA & 0xff00u) != 0) +
                      ((bitsA & 0xffu) != 0);
        uint32_t rb = 1u + ((bitsB & 0xff00u) != 0) +
                      ((bitsB & 0xffu) != 0);
        return emu::mulBaseCost +
               (ra < rb ? ra : rb) * emu::mulRowCost;
    }
    Unpacked a = unpack(bitsA);
    Unpacked b = unpack(bitsB);
    if (a.isNan || b.isNan || a.isInf || b.isInf || a.isZero || b.isZero)
        return 0;
    uint32_t ra = emu::nonZeroBytes(a.sig >> 7);
    uint32_t rb = emu::nonZeroBytes(b.sig >> 7);
    uint32_t rows = ra < rb ? ra : rb;
    return emu::mulBaseCost + rows * emu::mulRowCost;
}

} // namespace core

/**
 * Sinks may opt into the fast-value lane by declaring
 * `static constexpr bool fastValues = true`: the add/sub/mul/div cores
 * then compute *values* with native host IEEE-754 arithmetic (patching
 * NaN results to the canonical quiet NaN) while keeping every charge
 * and note identical to the emulated lane. This is valid because the
 * emulated binary32 cores are bit-identical to host round-to-nearest-
 * even for every non-NaN result and always return the canonical quiet
 * NaN otherwise — the exact property the exhaustive binary16 and 1M-
 * random binary32 differential tests lock. The batch execution path's
 * sinks opt in; SinkRef does not, so the public scalar API always runs
 * the emulated cores.
 *
 * The lane extends to whole method bodies, each written once over a
 * lane (softfloat_lanes.h) that runs these cores per element or their
 * fast values on a block in SIMD lanes. The CORDIC engines
 * (transpim/cordic.h) write their iterations once over the register
 * width: one host-arithmetic loop per call, on one start vector or a
 * block, with the emulated loop's values, charges and notes. It may
 * hoist two things out of its iterations: the host or WRAM table view
 * (LutStore::viewT, resolved once per call) and its per-call charge
 * and note totals, which it adds once through the sink's 64-bit
 * chargeClassWide/noteWide (BatchTally's adds; a fast-value sink
 * provides both). It may not hoist or batch MRAM table reads: those
 * stay one readT per entry, in the emulated order, so the DMA model,
 * DMA-data faults and stall cycles see the same event sequence. The
 * emulated cores stay every lane's oracle.
 */
template <class S>
inline constexpr bool sinkFastValues = [] {
    if constexpr (requires { S::fastValues; })
        return static_cast<bool>(S::fastValues);
    else
        return false;
}();

/** Emulated binary32 addition (round-to-nearest-even). */
template <class S>
inline float
addT(float fa, float fb, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::addCharge);
    s.note(OpClass::FloatAdd);
    if constexpr (sinkFastValues<S>) {
        return core::canonical(fa + fb);
    }
    core::Unpacked a = core::unpack(floatBits(fa));
    core::Unpacked b = core::unpack(floatBits(fb));

    if (a.isNan || b.isNan)
        return core::quietNan();
    if (a.isInf) {
        if (b.isInf && a.sign != b.sign)
            return core::quietNan();
        return fa;
    }
    if (b.isInf)
        return fb;
    if (a.isZero && b.isZero)
        return bitsToFloat((a.sign & b.sign) << 31);
    if (a.isZero)
        return fb;
    if (b.isZero)
        return fa;

    if (a.sign == b.sign)
        return core::addMags(a.sign, a, b);
    return core::subMags(a.sign, a, b);
}

/** Emulated binary32 subtraction. */
template <class S>
inline float
subT(float fa, float fb, S& s)
{
    // a - b == a + (-b); the DPU sequence flips the sign bit first.
    s.chargeClass(InstrClass::SoftFloat, 1);
    return addT(fa, bitsToFloat(floatBits(fb) ^ 0x80000000u), s);
}

/** Emulated binary32 multiplication. */
template <class S>
inline float
mulT(float fa, float fb, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::mulCharge);
    s.note(OpClass::FloatMul);
    if constexpr (sinkFastValues<S>) {
        // Same data-dependent IntMulDiv charge the emulated lane's
        // emuMul32T produces on the non-special path.
        uint32_t ic = core::mulIntCharge(floatBits(fa), floatBits(fb));
        if (ic)
            s.chargeClass(InstrClass::IntMulDiv, ic);
        return core::canonical(fa * fb);
    }
    core::Unpacked a = core::unpack(floatBits(fa));
    core::Unpacked b = core::unpack(floatBits(fb));
    uint32_t sign = a.sign ^ b.sign;

    if (a.isNan || b.isNan)
        return core::quietNan();
    if (a.isInf || b.isInf) {
        if (a.isZero || b.isZero)
            return core::quietNan(); // inf * 0
        return bitsToFloat(ieeePack(sign, 0xff, 0));
    }
    if (a.isZero || b.isZero)
        return bitsToFloat(sign << 31);

    // 24x24-bit significand product through the emulated multiplier.
    uint32_t sig24A = a.sig >> 7;
    uint32_t sig24B = b.sig >> 7;
    uint64_t prod = emuMul32T(sig24A, sig24B, s);

    int exp;
    uint32_t sig;
    if (prod & (1ull << 47)) {
        sig = static_cast<uint32_t>(prod >> 17);
        sig |= (prod & 0x1ffffu) != 0 ? 1u : 0u;
        exp = a.exp + b.exp - 126;
    } else {
        sig = static_cast<uint32_t>(prod >> 16);
        sig |= (prod & 0xffffu) != 0 ? 1u : 0u;
        exp = a.exp + b.exp - 127;
    }
    return core::roundPack(sign, exp, sig);
}

/** Emulated binary32 division. */
template <class S>
inline float
divT(float fa, float fb, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::divCharge);
    s.note(OpClass::FloatDiv);
    if constexpr (sinkFastValues<S>) {
        return core::canonical(fa / fb);
    }
    core::Unpacked a = core::unpack(floatBits(fa));
    core::Unpacked b = core::unpack(floatBits(fb));
    uint32_t sign = a.sign ^ b.sign;

    if (a.isNan || b.isNan)
        return core::quietNan();
    if (a.isInf) {
        if (b.isInf)
            return core::quietNan();
        return bitsToFloat(ieeePack(sign, 0xff, 0));
    }
    if (b.isInf)
        return bitsToFloat(sign << 31);
    if (b.isZero) {
        if (a.isZero)
            return core::quietNan(); // 0 / 0
        return bitsToFloat(ieeePack(sign, 0xff, 0));
    }
    if (a.isZero)
        return bitsToFloat(sign << 31);

    uint32_t a24 = a.sig >> 7;
    uint32_t b24 = b.sig >> 7;
    int exp = a.exp - b.exp + 127;
    if (a24 < b24) {
        a24 <<= 1;
        --exp;
    }
    // Long division producing a 31-bit quotient (bit 30 set) + sticky.
    uint64_t num = static_cast<uint64_t>(a24) << 30;
    uint32_t q = static_cast<uint32_t>(num / b24);
    uint32_t rem = static_cast<uint32_t>(num % b24);
    uint32_t sig = q | (rem != 0 ? 1u : 0u);
    return core::roundPack(sign, exp, sig);
}

/** Emulated binary32 square root (digit-recurrence). */
template <class S>
inline float
sqrtT(float fa, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::sqrtCharge);
    s.note(OpClass::FloatSqrt);
    uint32_t bits = floatBits(fa);
    core::Unpacked a = core::unpack(bits);

    if (a.isNan)
        return core::quietNan();
    if (a.isZero)
        return fa; // sqrt(+-0) = +-0
    if (a.sign)
        return core::quietNan(); // negative non-zero
    if (a.isInf)
        return fa;

    int e = a.exp - 127; // unbiased exponent
    uint32_t a24 = a.sig >> 7;
    uint64_t radicand;
    int rexp;
    if (e & 1) {
        // Odd exponent: fold one factor of two into the significand.
        // (works for negative odd e as well: (e-1) is even)
        radicand = static_cast<uint64_t>(a24) << 1;
        rexp = (e - 1) / 2 + 127;
    } else {
        radicand = a24;
        rexp = e / 2 + 127;
    }
    // Integer square root of radicand * 2^37: result has bit 30 set.
    uint64_t n = radicand << 37;
    uint64_t sq = 0;
    uint64_t rem = 0;
    for (int i = 62; i >= 0; i -= 2) {
        rem = (rem << 2) | ((n >> i) & 3u);
        uint64_t trial = (sq << 2) | 1u;
        sq <<= 1;
        if (trial <= rem) {
            rem -= trial;
            sq |= 1u;
        }
    }
    uint32_t sig = static_cast<uint32_t>(sq) | (rem != 0 ? 1u : 0u);
    return core::roundPack(0, rexp, sig);
}

/** Sign flip; one instruction on the DPU (xor with sign mask). */
template <class S>
inline float
negT(float a, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, 1);
    return bitsToFloat(floatBits(a) ^ 0x80000000u);
}

/** Absolute value; one instruction (and with ~sign mask). */
template <class S>
inline float
absT(float a, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, 1);
    return bitsToFloat(floatBits(a) & 0x7fffffffu);
}

/** Emulated ordered comparison a < b. */
template <class S>
inline bool
ltT(float a, float b, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::compareCost);
    s.note(OpClass::FloatCmp);
    uint32_t ua = floatBits(a);
    uint32_t ub = floatBits(b);
    if (core::isNanBits(ua) || core::isNanBits(ub))
        return false;
    // -0 == +0 under IEEE comparison.
    if (((ua | ub) & 0x7fffffffu) == 0)
        return false;
    return core::orderFloatBits(ua) < core::orderFloatBits(ub);
}

/** Emulated ordered comparison a <= b. */
template <class S>
inline bool
leT(float a, float b, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::compareCost);
    s.note(OpClass::FloatCmp);
    uint32_t ua = floatBits(a);
    uint32_t ub = floatBits(b);
    if (core::isNanBits(ua) || core::isNanBits(ub))
        return false;
    if (((ua | ub) & 0x7fffffffu) == 0)
        return true;
    return core::orderFloatBits(ua) <= core::orderFloatBits(ub);
}

/** Emulated equality comparison (0 == -0, NaN != NaN). */
template <class S>
inline bool
eqT(float a, float b, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::compareCost);
    s.note(OpClass::FloatCmp);
    uint32_t ua = floatBits(a);
    uint32_t ub = floatBits(b);
    if (core::isNanBits(ua) || core::isNanBits(ub))
        return false;
    if (((ua | ub) & 0x7fffffffu) == 0)
        return true;
    return ua == ub;
}

/** Convert float to int32 truncating toward zero (C cast semantics). */
template <class S>
inline int32_t
toI32TruncT(float a, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::convertCost);
    s.note(OpClass::FloatConv);
    uint32_t bits = floatBits(a);
    if (core::isNanBits(bits))
        return 0;
    uint32_t sign = ieeeSign(bits);
    int e = static_cast<int>(ieeeExponent(bits)) - ieeeBias;
    if (e < 0)
        return 0;
    if (e >= 31) {
        // Saturate (C leaves this undefined; the DPU sequence clamps).
        return sign ? INT32_MIN : INT32_MAX;
    }
    uint32_t sig = ieeeMantissa(bits) | 0x800000u;
    uint32_t mag = e >= 23 ? sig << (e - 23) : sig >> (23 - e);
    return sign ? -static_cast<int32_t>(mag) : static_cast<int32_t>(mag);
}

/** Convert float to int32 rounding toward negative infinity. */
template <class S>
inline int32_t
toI32FloorT(float a, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::convertCost + 4);
    s.note(OpClass::FloatConv);
    uint32_t bits = floatBits(a);
    if (core::isNanBits(bits))
        return 0;
    NullSink none;
    int32_t t = toI32TruncT(a, none);
    if ((bits & 0x80000000u) &&
        static_cast<float>(t) != a && t != INT32_MIN) {
        return t - 1;
    }
    return t;
}

/** Convert float to int32 rounding to nearest (ties away from zero). */
template <class S>
inline int32_t
toI32RoundT(float a, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::convertCost + 4);
    s.note(OpClass::FloatConv);
    uint32_t bits = floatBits(a);
    if (core::isNanBits(bits))
        return 0;
    uint32_t sign = ieeeSign(bits);
    int e = static_cast<int>(ieeeExponent(bits)) - ieeeBias;
    if (e < -1)
        return 0;
    if (e >= 31)
        return sign ? INT32_MIN : INT32_MAX;
    uint64_t sig = ieeeMantissa(bits) | 0x800000u;
    // Value = sig * 2^(e-23); round half away from zero.
    int shift = 23 - e;
    uint64_t mag;
    if (shift <= 0) {
        mag = sig << (-shift);
    } else {
        uint64_t half = 1ull << (shift - 1);
        mag = (sig + half) >> shift;
    }
    return sign ? -static_cast<int32_t>(mag) : static_cast<int32_t>(mag);
}

/** Convert int32 to the nearest binary32. */
template <class S>
inline float
fromI32T(int32_t a, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::convertCost);
    s.note(OpClass::FloatConv);
    if (a == 0)
        return 0.0f;
    uint32_t sign = a < 0 ? 1u : 0u;
    uint32_t mag = a < 0 ? static_cast<uint32_t>(-(int64_t)a)
                         : static_cast<uint32_t>(a);
    int p = 31 - countLeadingZeros32(mag); // msb position
    uint32_t sig;
    if (p <= 30)
        sig = mag << (30 - p);
    else
        sig = core::shiftRightJam32(mag, p - 30);
    return core::roundPack(sign, ieeeBias + p, sig);
}

/**
 * Convert a binary32 value to Q3.28 fixed point (round to nearest).
 * See softfloat.h for the saturation contract.
 */
template <class S>
inline Fixed
toFixedT(float a, S& s)
{
    // Shift the significand so the binary point sits at bit 28, round
    // to nearest (half away from zero), preserving the DPU instruction
    // shape: exponent extract, shift, conditional negate.
    s.chargeClass(InstrClass::SoftFloat, core::convertCost + 2);
    s.note(OpClass::FloatConv);
    uint32_t bits = floatBits(a);
    if (core::isNanBits(bits))
        return Fixed::fromRaw(0);
    uint32_t sign = ieeeSign(bits);
    int e = static_cast<int>(ieeeExponent(bits));
    if (e == 0)
        return Fixed::fromRaw(0); // subnormals (< 2^-126) round to 0
    int shift = 23 - (e - ieeeBias) - Fixed::fracBits; // right-shift amount
    uint64_t sig = ieeeMantissa(bits) | 0x800000u;
    uint64_t mag;
    if (shift <= 0) {
        if (shift < -31)
            mag = 1ull << 40; // force saturation below
        else
            mag = sig << (-shift);
    } else if (shift > 40) {
        mag = 0;
    } else {
        uint64_t half = 1ull << (shift - 1);
        mag = (sig + half) >> shift;
    }
    // Saturate at the Q3.28 range instead of wrapping (values at or
    // beyond +-8.0 clamp to the nearest representable), matching what
    // a careful DPU conversion routine does.
    if (sign) {
        if (mag > 0x80000000ull)
            mag = 0x80000000ull;
        return Fixed::fromRaw(static_cast<int32_t>(
            -static_cast<int64_t>(mag)));
    }
    if (mag > 0x7fffffffull)
        mag = 0x7fffffffull;
    return Fixed::fromRaw(static_cast<int32_t>(mag));
}

/** Convert a Q3.28 fixed-point value to the nearest binary32. */
template <class S>
inline float
fromFixedT(Fixed a, S& s)
{
    s.chargeClass(InstrClass::SoftFloat, core::convertCost + 2);
    s.note(OpClass::FloatConv);
    int32_t raw = a.raw();
    if (raw == 0)
        return 0.0f;
    uint32_t sign = raw < 0 ? 1u : 0u;
    uint32_t mag = raw < 0 ? static_cast<uint32_t>(-(int64_t)raw)
                           : static_cast<uint32_t>(raw);
    int p = 31 - countLeadingZeros32(mag);
    uint32_t sig;
    if (p <= 30)
        sig = mag << (30 - p);
    else
        sig = core::shiftRightJam32(mag, p - 30);
    // Value = mag * 2^-28, so the biased exponent is p - 28 + bias.
    return core::roundPack(sign, ieeeBias + p - Fixed::fracBits, sig);
}

} // namespace sf
} // namespace tpl

#endif // TPL_SOFTFLOAT_SOFTFLOAT_CORE_H
