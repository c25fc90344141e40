/**
 * @file
 * Block lanes of the binary32 fast-value lane: the softfloat cores'
 * steps across SIMD lanes, one element per lane.
 *
 * Each op below produces, in every lane, the value its scalar core
 * returns to a fast-value sink (softfloat_core.h: the host IEEE
 * result, a NaN patched to the canonical quiet NaN), and counts the
 * charges and notes that core makes into a LaneTally. Constant
 * per-op parts are counted per vector; the one data-dependent charge
 * of the arithmetic cores, a multiply's IntMulDiv expansion, is
 * summed per lane from mulIntCharge's closed form. Multiplies and
 * adds stay separate vector ops, each rounded once, exactly as the
 * scalar cores round them.
 *
 * A lane whose operands leave the path these closed forms describe
 * is marked slow in the tally: a multiply with a zero, subnormal,
 * inf or NaN operand (mulIntCharge's unpack path), a float-to-int
 * conversion outside the range where it is exact. A caller that finds
 * any slow lane discards the block's values and tally and runs the
 * block's elements through the per-element lane, which charges
 * exactly what the emulated cores charge. A block with no slow lane
 * adds its tally to the sink once (LaneTally::addTo).
 */

#ifndef TPL_SOFTFLOAT_SOFTFLOAT_LANES_H
#define TPL_SOFTFLOAT_SOFTFLOAT_LANES_H

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/emu_int.h"
#include "common/instr_sink.h"
#include "softfloat/simd_lanes.h"
#include "softfloat/softfloat_core.h"

namespace tpl {
namespace sf {

/** True when any lane of @p mask is non-zero. */
inline bool
anyLane(VBits mask)
{
    uint64_t words[sizeof(mask) / sizeof(uint64_t)];
    std::memcpy(words, &mask, sizeof(mask));
    uint64_t any = 0;
    for (uint64_t w : words)
        any |= w;
    return any != 0;
}

/** core::canonical() in every lane of a host vector result, as bits. */
inline VBits
canonicalBits(VFloat r)
{
    const VBits nan = reinterpret_cast<VBits>(r != r);
    return (reinterpret_cast<VBits>(r) & ~nan) | (nan & ieeeQuietNan);
}

/** The lanes of @p a where @p mask is all ones, else those of @p b. */
inline VBits
selectLanes(VBits mask, VBits a, VBits b)
{
    return (a & mask) | (b & ~mask);
}

/** @p c in every lane. */
inline VFloat
splatLanes(float c)
{
    VFloat v;
    for (int l = 0; l < simdLanes; ++l)
        v[l] = c;
    return v;
}

/**
 * The charges and notes of a block's lane ops, counted locally and
 * added to a fast-value sink once, plus the lanes that left a fast
 * path.
 */
struct LaneTally
{
    /** Constant per-op charges, per InstrClass. */
    std::array<uint64_t, numInstrClasses> classes{};

    /** Notes, per OpClass. */
    std::array<uint64_t, numOpClasses> ops{};

    /** Per lane, the summed IntMulDiv charges of its multiplies. */
    VBits intMulDiv = {};

    /** All ones in every lane that left a fast path. */
    VBits slow = {};

    /** @p perLane instructions of @p cls in every lane of a vector. */
    void
    charge(InstrClass cls, uint32_t perLane)
    {
        classes[static_cast<int>(cls)] +=
            static_cast<uint64_t>(perLane) * simdLanes;
    }

    /** One @p op in every lane of a vector. */
    void note(OpClass op) { ops[static_cast<int>(op)] += simdLanes; }

    /**
     * Add @p taken's counts for the lanes set in @p mask (all ones or
     * zero) only: @p taken tallies one vector of ops that only those
     * lanes' elements take, run on the whole vector.
     */
    void
    addWhere(VBits mask, const LaneTally& taken)
    {
        uint64_t n = 0;
        for (int l = 0; l < simdLanes; ++l)
            n += mask[l] & 1u;
        for (int c = 0; c < numInstrClasses; ++c)
            classes[c] += taken.classes[c] / simdLanes * n;
        for (int o = 0; o < numOpClasses; ++o)
            ops[o] += taken.ops[o] / simdLanes * n;
        intMulDiv += taken.intMulDiv & mask;
        slow |= taken.slow & mask;
    }

    /** Add the block's totals to @p sink (a fast-value sink). */
    template <class S>
    void
    addTo(S& sink) const
    {
        uint64_t mulDiv = classes[static_cast<int>(InstrClass::IntMulDiv)];
        for (int l = 0; l < simdLanes; ++l)
            mulDiv += intMulDiv[l];
        for (int c = 0; c < numInstrClasses; ++c) {
            const auto cls = static_cast<InstrClass>(c);
            const uint64_t n =
                cls == InstrClass::IntMulDiv ? mulDiv : classes[c];
            if (n)
                sink.chargeClassWide(cls, n);
        }
        for (int o = 0; o < numOpClasses; ++o)
            if (ops[o])
                sink.noteWide(static_cast<OpClass>(o), ops[o]);
    }
};

/**
 * core::mulIntCharge in every lane, by its closed form for two normal
 * operands. Lanes where either operand is zero, subnormal, inf or NaN
 * are set in @p slow; their returned charge is garbage.
 */
inline VBits
mulIntChargeLanes(VBits a, VBits b, VBits& slow)
{
    // emuMul32T's rows of one normal significand: the implicit bit's
    // byte plus each non-zero low mantissa byte (a true compare is -1).
    auto rows = [&slow](VBits x) {
        const VBits e = (x >> 23) & 0xffu;
        slow |= reinterpret_cast<VBits>(e - 1u >= 0xfeu);
        return 1u - reinterpret_cast<VBits>((x & 0xff00u) != 0) -
               reinterpret_cast<VBits>((x & 0xffu) != 0);
    };
    const VBits ra = rows(a);
    const VBits rb = rows(b);
    const VBits fewer =
        selectLanes(reinterpret_cast<VBits>(ra < rb), ra, rb);
    return emu::mulBaseCost + fewer * emu::mulRowCost;
}

/** mulT in every lane. */
inline VFloat
mulLanes(VFloat a, VFloat b, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, core::mulCharge);
    t.note(OpClass::FloatMul);
    t.intMulDiv += mulIntChargeLanes(reinterpret_cast<VBits>(a),
                                     reinterpret_cast<VBits>(b), t.slow);
    return reinterpret_cast<VFloat>(canonicalBits(a * b));
}

/** addT in every lane. */
inline VFloat
addLanes(VFloat a, VFloat b, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, core::addCharge);
    t.note(OpClass::FloatAdd);
    return reinterpret_cast<VFloat>(canonicalBits(a + b));
}

/** subT in every lane: the sign flip, then the add. */
inline VFloat
subLanes(VFloat a, VFloat b, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, 1);
    return addLanes(
        a, reinterpret_cast<VFloat>(reinterpret_cast<VBits>(b) ^ 0x80000000u),
        t);
}

/** divT in every lane. */
inline VFloat
divLanes(VFloat a, VFloat b, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, core::divCharge);
    t.note(OpClass::FloatDiv);
    return reinterpret_cast<VFloat>(canonicalBits(a / b));
}

/** negT in every lane. */
inline VFloat
negLanes(VFloat a, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, 1);
    return reinterpret_cast<VFloat>(reinterpret_cast<VBits>(a) ^
                                    0x80000000u);
}

/** absT in every lane. */
inline VFloat
absLanes(VFloat a, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, 1);
    return reinterpret_cast<VFloat>(reinterpret_cast<VBits>(a) &
                                    0x7fffffffu);
}

/**
 * toI32FloorT in every lane where |a| < 2^24, where host truncation
 * is exact and the floor fits any later fromI32Lanes exactly. Other
 * lanes (NaN, inf, larger magnitudes) are set in t.slow and convert
 * a zero instead, so no conversion leaves int32.
 */
inline VInt
toI32FloorLanes(VFloat a, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, core::convertCost + 4);
    t.note(OpClass::FloatConv);
    const VBits bits = reinterpret_cast<VBits>(a);
    const VBits exact =
        reinterpret_cast<VBits>((bits & 0x7fffffffu) < 0x4b800000u);
    t.slow |= ~exact;
    const VFloat safe = reinterpret_cast<VFloat>(bits & exact);
    const VInt trunc = __builtin_convertvector(safe, VInt);
    // Truncation rounded a negative non-integer up: step down one
    // (a true compare is -1).
    return trunc + (safe < __builtin_convertvector(trunc, VFloat));
}

/**
 * fromI32T in every lane where |k| <= 2^24, where the conversion is
 * exact. Other lanes are set in t.slow.
 */
inline VFloat
fromI32Lanes(VInt k, LaneTally& t)
{
    t.charge(InstrClass::SoftFloat, core::convertCost);
    t.note(OpClass::FloatConv);
    t.slow |= reinterpret_cast<VBits>(reinterpret_cast<VBits>(k) +
                                          0x1000000u >
                                      0x2000000u);
    return __builtin_convertvector(k, VFloat);
}

/**
 * Polynomial::evalT's Horner steps on @p Vectors registers of lanes,
 * step by step across all of them: per coefficient below the leading
 * one, a coefficient load and loop control (IntAlu 2), a multiply and
 * an add in every lane. @p coeffs ascend, c0 first; none yields 0.
 */
template <int Vectors>
inline void
hornerLanes(std::span<const float> coeffs, const VFloat (&x)[Vectors],
            VFloat (&acc)[Vectors], LaneTally& t)
{
    if (coeffs.empty()) {
        for (VFloat& a : acc)
            a = VFloat{};
        return;
    }
    for (VFloat& a : acc)
        a = splatLanes(coeffs.back());
    for (std::size_t i = coeffs.size() - 1; i-- > 0;) {
        const VFloat c = splatLanes(coeffs[i]);
        for (int b = 0; b < Vectors; ++b) {
            t.charge(InstrClass::IntAlu, 2);
            acc[b] = addLanes(mulLanes(acc[b], x[b], t), c, t);
        }
    }
}

} // namespace sf
} // namespace tpl

#endif // TPL_SOFTFLOAT_SOFTFLOAT_LANES_H
