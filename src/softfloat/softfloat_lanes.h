/**
 * @file
 * The lanes a method body runs in: the body is written once over a lane
 * type L and runs per element or on a block of elements, one per SIMD
 * lane. Both lanes share one op vocabulary over L::Float and L::Int:
 * splat, mul, add, sub, div, neg, abs, toI32Floor, fromI32, ldexp by k
 * (defined next to pimLdexpT in transpim/ldexp.h), whereNegative (a
 * step counted only where x is negative), charge (IntAlu) and note.
 *
 *  - ElemLane<S> runs one element through the softfloat cores with the
 *    sink S: with SinkRef it is the emulated oracle, with a fast-value
 *    sink (BatchSink) the per-element fast lane. It never leaves its
 *    path.
 *  - VecLane<W> runs W elements in W / simdLanes registers. Each op
 *    gives every lane the value its scalar core returns to a fast-value
 *    sink (softfloat_core.h: the host IEEE result, a NaN patched to the
 *    canonical quiet NaN), each multiply and add rounded once as there.
 *    It counts the charges and notes of those cores: constant parts
 *    once per op, scaled by W, and a multiply's data-dependent IntMulDiv
 *    expansion per lane, by mulIntCharge's closed form.
 *
 * A vector lane whose operands leave the path these closed forms
 * describe is marked slow: a multiply with a zero, subnormal, inf or
 * NaN operand, a float-to-int conversion outside its exact range, an
 * ldexp off its exponent-field path. A caller that finds any slow lane
 * discards the block and runs its elements through the element lane,
 * which charges exactly what the emulated cores charge. A block with
 * no slow lane adds its counts to the sink once (VecLane::addTo).
 */

#ifndef TPL_SOFTFLOAT_SOFTFLOAT_LANES_H
#define TPL_SOFTFLOAT_SOFTFLOAT_LANES_H

#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/emu_int.h"
#include "common/instr_sink.h"
#include "softfloat/simd_lanes.h"
#include "softfloat/softfloat_core.h"

namespace tpl {
namespace sf {

/** The 32-bit integer register type as wide as the register type V. */
template <class V>
using BitsOf = typename SimdRegs<sizeof(V) / sizeof(uint32_t)>::Bits;

/** True when any lane of @p mask is non-zero. */
template <class V>
inline bool
anyLane(V mask)
{
    using Word =
        std::conditional_t<sizeof(V) % sizeof(uint64_t), uint32_t, uint64_t>;
    Word words[sizeof(mask) / sizeof(Word)];
    std::memcpy(words, &mask, sizeof(mask));
    Word any = 0;
    for (Word w : words)
        any |= w;
    return any != 0;
}

/** core::canonical() in every lane of a host vector result, as bits. */
template <class F>
inline BitsOf<F>
canonicalBits(F r)
{
    using B = BitsOf<F>;
    const B nan = reinterpret_cast<B>(r != r);
    return (reinterpret_cast<B>(r) & ~nan) | (nan & ieeeQuietNan);
}

/** The lanes of @p a where @p mask is all ones, else those of @p b. */
template <class B>
inline B
selectLanes(B mask, B a, B b)
{
    return (a & mask) | (b & ~mask);
}

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

/** The per-element lane: one element through the cores with sink S. */
template <class S>
class ElemLane
{
  public:
    using Float = float;
    using Int = int32_t;

    explicit ElemLane(S& sink) : sink_(sink) {}

    float splat(float c) const { return c; }
    float mul(float a, float b) { return mulT(a, b, sink_); }
    float add(float a, float b) { return addT(a, b, sink_); }
    float sub(float a, float b) { return subT(a, b, sink_); }
    float div(float a, float b) { return divT(a, b, sink_); }
    float neg(float a) { return negT(a, sink_); }
    float abs(float a) { return absT(a, sink_); }
    int32_t toI32Floor(float a) { return toI32FloorT(a, sink_); }
    float fromI32(int32_t k) { return fromI32T(k, sink_); }

    /** pimLdexpT(a, k); defined in transpim/ldexp.h. */
    float ldexp(float a, int32_t k);

    /** @p step(*this, v) when @p x is negative (its sign bit is set),
     * charged only then; else @p v. */
    template <class Step>
    float
    whereNegative(float x, float v, const Step& step)
    {
        return floatBits(x) >> 31 ? step(*this, v) : v;
    }

    void charge(uint32_t instructions) { sink_.charge(instructions); }
    void note(OpClass op) { sink_.note(op); }

  private:
    S& sink_;
};

/** @p N native registers of type V: one vector-lane value. */
template <class V, int N>
struct Regs
{
    using Reg = V;
    V r[N];
};

/**
 * The vector lane: @p W elements, one per SIMD lane, in W / simdLanes
 * registers, with the counts of its ops and the lanes that left a
 * fast path.
 */
template <int W>
class VecLane
{
    static_assert(W % simdLanes == 0, "whole registers only");
    static constexpr int N = W / simdLanes;

  public:
    using Float = Regs<VFloat, N>;
    using Int = Regs<VInt, N>;
    using Bits = Regs<VBits, N>;

    /** Constant charges per InstrClass, notes per OpClass. */
    std::array<uint64_t, numInstrClasses> classes{};
    std::array<uint64_t, numOpClasses> ops{};

    /** Per lane: its multiplies' summed IntMulDiv charges, and all ones
     * once it left a fast path. */
    Bits intMulDiv{};
    Bits slow{};

    Float splat(float c) const { return broadcast<Float>(c); }

    /** The @p W floats at @p p. */
    Float
    load(const float* p) const
    {
        Float v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    }

    /** @p v's @p W floats, to @p p. */
    void
    store(float* p, const Float& v) const
    {
        std::memcpy(p, &v, sizeof(v));
    }

    /** mulT in every lane; add, sub, div, neg and abs below are addT,
     * subT, divT, negT and absT likewise. */
    Float
    mul(const Float& a, const Float& b)
    {
        call(core::mulCharge, OpClass::FloatMul);
        forRegs([&](int i) {
            intMulDiv.r[i] += mulIntChargeLanes(
                reinterpret_cast<VBits>(a.r[i]),
                reinterpret_cast<VBits>(b.r[i]), slow.r[i]);
        });
        return map([](VFloat x, VFloat y) { return canonical(x * y); }, a, b);
    }

    Float
    add(const Float& a, const Float& b)
    {
        call(core::addCharge, OpClass::FloatAdd);
        return map([](VFloat x, VFloat y) { return canonical(x + y); }, a, b);
    }

    /** The sign flip, then the add. */
    Float
    sub(const Float& a, const Float& b)
    {
        return add(a, neg(b));
    }

    Float
    div(const Float& a, const Float& b)
    {
        call(core::divCharge, OpClass::FloatDiv);
        return map([](VFloat x, VFloat y) { return canonical(x / y); }, a, b);
    }

    Float
    neg(const Float& a)
    {
        chargeClass(InstrClass::SoftFloat, 1);
        return map([](VFloat x) { return withBits(x, -0.0f, ~0u); }, a);
    }

    Float
    abs(const Float& a)
    {
        chargeClass(InstrClass::SoftFloat, 1);
        return map([](VFloat x) { return withBits(x, 0.0f, ~0x80000000u); },
                   a);
    }

    /**
     * toI32FloorT where |a| < 2^24, where host truncation is exact and
     * the floor fits any later fromI32 exactly. Other lanes (NaN, inf,
     * larger magnitudes) are set in slow and convert a zero instead, so
     * no conversion leaves int32.
     */
    Int
    toI32Floor(const Float& a)
    {
        call(core::convertCost + 4, OpClass::FloatConv);
        Int out;
        forRegs([&](int i) {
            const VBits bits = reinterpret_cast<VBits>(a.r[i]);
            const VBits exact = reinterpret_cast<VBits>(
                (bits & 0x7fffffffu) < 0x4b800000u);
            slow.r[i] |= ~exact;
            const VFloat safe = reinterpret_cast<VFloat>(bits & exact);
            const VInt trunc = __builtin_convertvector(safe, VInt);
            // Truncation rounded a negative non-integer up: step down
            // one (a true compare is -1).
            out.r[i] =
                trunc + (safe < __builtin_convertvector(trunc, VFloat));
        });
        return out;
    }

    /** fromI32T where |k| <= 2^24, where the conversion is exact. Other
     * lanes are set in slow. */
    Float
    fromI32(const Int& k)
    {
        call(core::convertCost, OpClass::FloatConv);
        Float out;
        forRegs([&](int i) {
            slow.r[i] |= reinterpret_cast<VBits>(
                reinterpret_cast<VBits>(k.r[i]) + 0x1000000u > 0x2000000u);
            out.r[i] = __builtin_convertvector(k.r[i], VFloat);
        });
        return out;
    }

    /** pimLdexpT's exponent-field path; defined in transpim/ldexp.h. */
    Float ldexp(const Float& a, const Int& k);

    Float
    ldexp(const Float& a, int32_t k)
    {
        return ldexp(a, broadcast<Int>(k));
    }

    /**
     * @p step(lane, v) where @p x is negative (its sign bit is set),
     * @p v elsewhere. The step runs in every lane; its counts are added
     * for the negative lanes only.
     */
    template <class Step>
    Float
    whereNegative(const Float& x, const Float& v, const Step& step)
    {
        VecLane taken;
        const Float stepped = step(taken, v);
        Float out;
        uint64_t n = 0;
        forRegs([&](int i) {
            const VBits neg = reinterpret_cast<VBits>(
                reinterpret_cast<VInt>(x.r[i]) < 0);
            out.r[i] = reinterpret_cast<VFloat>(selectLanes(
                neg, reinterpret_cast<VBits>(stepped.r[i]),
                reinterpret_cast<VBits>(v.r[i])));
            intMulDiv.r[i] += taken.intMulDiv.r[i] & neg;
            slow.r[i] |= taken.slow.r[i] & neg;
            for (int l = 0; l < simdLanes; ++l)
                n += neg[l] & 1u;
        });
        for (int c = 0; c < numInstrClasses; ++c)
            classes[c] += taken.classes[c] / W * n;
        for (int o = 0; o < numOpClasses; ++o)
            ops[o] += taken.ops[o] / W * n;
        return out;
    }

    void charge(uint32_t perLane) { chargeClass(InstrClass::IntAlu, perLane); }
    void note(OpClass op) { ops[static_cast<int>(op)] += W; }

    /** True when any lane left a fast path. */
    bool
    anySlow() const
    {
        VBits any = {};
        forRegs([&](int i) { any |= slow.r[i]; });
        return anyLane(any);
    }

    /** Add the block's totals to @p sink (a fast-value sink). */
    template <class S>
    void
    addTo(S& sink) const
    {
        std::array<uint64_t, numInstrClasses> all = classes;
        forRegs([&](int i) {
            for (int l = 0; l < simdLanes; ++l)
                all[static_cast<int>(InstrClass::IntMulDiv)] +=
                    intMulDiv.r[i][l];
        });
        for (int c = 0; c < numInstrClasses; ++c)
            if (all[c])
                sink.chargeClassWide(static_cast<InstrClass>(c), all[c]);
        for (int o = 0; o < numOpClasses; ++o)
            if (ops[o])
                sink.noteWide(static_cast<OpClass>(o), ops[o]);
    }

  private:
    /**
     * @p f(i) for every register i, unrolled: with constant register
     * indices a lane value stays in machine registers, where a loop
     * over them would keep it in memory.
     */
    template <class F>
    static void
    forRegs(const F& f)
    {
        [&]<int... I>(std::integer_sequence<int, I...>) {
            (f(I), ...);
        }(std::make_integer_sequence<int, N>{});
    }

    /** @p f on the registers of @p a... */
    template <class F, class... A>
    static Float
    map(const F& f, const A&... a)
    {
        Float out;
        forRegs([&](int i) { out.r[i] = f(a.r[i]...); });
        return out;
    }

    /** @p c in every lane of a value of type R. */
    template <class R, class T>
    static R
    broadcast(T c)
    {
        typename R::Reg reg{};
        for (int l = 0; l < simdLanes; ++l)
            reg[l] = c;
        R v;
        forRegs([&](int i) { v.r[i] = reg; });
        return v;
    }

    /** core::canonical() in every lane of a host result. */
    static VFloat
    canonical(VFloat r)
    {
        return reinterpret_cast<VFloat>(canonicalBits(r));
    }

    /** @p x's bits xor @p flip's, and @p keep. */
    static VFloat
    withBits(VFloat x, float flip, uint32_t keep)
    {
        return reinterpret_cast<VFloat>(
            (reinterpret_cast<VBits>(x) ^ floatBits(flip)) & keep);
    }

    /** @p perLane instructions of @p cls in every lane. */
    void
    chargeClass(InstrClass cls, uint32_t perLane)
    {
        classes[static_cast<int>(cls)] +=
            static_cast<uint64_t>(perLane) * W;
    }

    /** One softfloat core call in every lane: its constant SoftFloat
     * charge @p perLane and its note @p op. */
    void
    call(uint32_t perLane, OpClass op)
    {
        chargeClass(InstrClass::SoftFloat, perLane);
        note(op);
    }
};

} // namespace sf
} // namespace tpl

#endif // TPL_SOFTFLOAT_SOFTFLOAT_LANES_H
