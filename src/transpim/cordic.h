/**
 * @file
 * CORDIC engines: circular and hyperbolic, rotation and vectoring.
 *
 * CORDIC (Volder 1959) computes trigonometric/hyperbolic values with
 * one table lookup, two shifts and three additions per iteration; the
 * error shrinks roughly by one bit per iteration. TransPimLib's CORDIC
 * methods trade higher PIM-side cycle counts for near-zero host setup
 * time and tiny, accuracy-independent tables (paper Sections 2.2.1,
 * 3.1, 4.2.2).
 *
 * Two engines are provided:
 *
 *  - CordicEngine: arithmetic in emulated binary32 (the shift becomes a
 *    pimLdexp). This is the paper's evaluated floating-point CORDIC;
 *    on a PIM core without an FPU each iteration costs three emulated
 *    float additions, which is what makes CORDIC so much more expensive
 *    than L-LUT at high accuracy in Figure 5.
 *
 *  - CordicFixedEngine: arithmetic in Q3.28 with native integer ops
 *    (an ablation: far cheaper per iteration, accuracy capped near the
 *    2^-28 resolution).
 *
 * A fast-value sink (the batch path) runs the iterations in host
 * arithmetic in one of two lanes, with the emulated loop's values,
 * charges and notes: the per-element lane (iterateT, iterateFixedT)
 * steps one start vector through the schedule, and the block lane
 * (iterateBlockT, iterateFixedBlockT) steps a block of independent
 * start vectors through each iteration together, one element per
 * SIMD lane. An engine call splits into startT (the prologue, per
 * element) and the iterations, so a batch can gather a block's start
 * vectors, run the block lane, and finish each element.
 */

#ifndef TPL_TRANSPIM_CORDIC_H
#define TPL_TRANSPIM_CORDIC_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/fixed_point.h"
#include "common/instr_sink.h"
#include "softfloat/simd_lanes.h"
#include "softfloat/softfloat_core.h"
#include "softfloat/softfloat_lanes.h"
#include "transpim/ldexp.h"
#include "transpim/placement.h"

namespace tpl {
namespace transpim {

/** Rotation family (paper Table 1). */
enum class CordicMode
{
    Circular,   ///< sin, cos, tan
    Hyperbolic, ///< sinh, cosh, tanh, exp, and via vectoring log, sqrt
};

/** (x, y, z) state of a float CORDIC engine. */
struct CordicVector
{
    float x;
    float y;
    float z;
};

/** (x, y, z) state of the Q3.28 CORDIC engine. */
struct CordicFixedVector
{
    Fixed x;
    Fixed y;
    Fixed z;
};

/** The input of one rotation-mode engine call: the start angle. */
template <class T>
struct CordicRotation
{
    static constexpr bool vectoring = false;
    T z0;
};

/** The input of one vectoring-mode engine call: the start vector. */
template <class T>
struct CordicVectoring
{
    static constexpr bool vectoring = true;
    T x0;
    T y0;
};

namespace cordic_detail {

/** Instruction cost of the sign test + branch + loop control per step. */
inline constexpr uint32_t iterControlCost = 4;

/** Loop prologue: loading the start vector and constants. */
inline constexpr uint32_t startupCost = 4;

/** One Q3.28 step: two shifts, three adds, sign test + loop control. */
inline constexpr uint32_t fixedStepCost = 2 + 3 + iterControlCost;

/**
 * True when the step is positive: y gains the shifted x and z loses
 * the angle. Rotation drives z toward zero, so it steps by sign(z);
 * vectoring drives y toward zero, so it steps by -sign(y).
 */
template <bool Vectoring>
inline bool
positiveStep(float y, float z)
{
    if constexpr (Vectoring)
        return (floatBits(y) >> 31) != 0;
    else
        return (floatBits(z) >> 31) == 0;
}

/**
 * The fast-value lane of iterateT (softfloat_core.h states the
 * contract): the emulated loop's values, charges and notes, computed
 * in host arithmetic.
 *  - The angle table is resolved once per call; an MRAM table keeps
 *    one readT per iteration.
 *  - subT(a, b) is addT(a, -b) plus one SoftFloat instruction, so each
 *    add/sub branch becomes a sign-bit flip of the added term, and the
 *    loop counts the subtractions.
 *  - The shifts take pimLdexpT's exponent-field path inline and fall
 *    back to pimLdexpT for the other inputs.
 *  - Everything else is summed per call and added to the sink once.
 */
template <bool Vectoring, class S>
inline CordicVector
iterateFastT(CordicMode mode, const std::vector<uint32_t>& schedule,
             const LutStore<float>& angles, CordicVector v, S& sink)
{
    constexpr uint32_t signBit = 0x80000000u;
    auto flip = [](float a, uint32_t mask) {
        return bitsToFloat(floatBits(a) ^ mask);
    };
    auto shift = [&sink](float a, uint32_t i, uint64_t& inlined) {
        float r;
        if (ldexpDownFast(a, i, r)) {
            ++inlined;
            return r;
        }
        return pimLdexpT(a, -static_cast<int>(i), sink);
    };
    const LutView<float> view = angles.viewT(sink);
    // On a positive step circular rotation subtracts the shifted y
    // term from x, hyperbolic rotation adds it.
    const uint32_t xFlip =
        mode == CordicMode::Hyperbolic ? 0u : signBit;
    const uint64_t n = schedule.size();
    uint64_t inlinedShifts = 0;
    uint64_t xSubs = 0;
    float x = v.x;
    float y = v.y;
    float z = v.z;
    for (uint32_t k = 0; k < n; ++k) {
        uint32_t i = schedule[k];
        float xs = shift(x, i, inlinedShifts);
        float ys = shift(y, i, inlinedShifts);
        float ang = view ? view[k] : angles.readT(k, sink);
        // 0 on a positive step, the sign bit on a negative one.
        uint32_t neg = positiveStep<Vectoring>(y, z) ? 0u : signBit;
        xSubs += (neg ^ xFlip) >> 31;
        float nx = sf::core::canonical(x + flip(ys, neg ^ xFlip));
        float ny = sf::core::canonical(y + flip(xs, neg));
        float nz = sf::core::canonical(z + flip(ang, neg ^ signBit));
        x = nx;
        y = ny;
        z = nz;
    }
    // Per step: one of the y and z updates subtracts, and x's does
    // when xSubs counted it.
    const uint64_t reads = view ? n : 0;
    sink.chargeClassWide(InstrClass::IntAlu,
                         n * iterControlCost + reads * lutReadCost +
                             inlinedShifts *
                                 ldexp_detail::fastPathCost);
    sink.chargeClassWide(InstrClass::SoftFloat,
                         n * (3 * sf::core::addCharge + 1) + xSubs);
    sink.noteWide(OpClass::FloatAdd, 3 * n);
    sink.noteWide(OpClass::Ldexp, inlinedShifts);
    sink.noteWide(OpClass::TableRead, reads);
    return {x, y, z};
}

/**
 * The float CORDIC iterations over @p schedule from state @p v, with
 * one angle per step from @p angles: rotation (Vectoring = false)
 * drives z to zero, vectoring drives y to zero. Every float engine
 * (CordicEngine, the tail of CordicLutEngine) runs this one loop; a
 * fast-value sink takes iterateFastT.
 */
template <bool Vectoring, class S>
inline CordicVector
iterateT(CordicMode mode, const std::vector<uint32_t>& schedule,
         const LutStore<float>& angles, CordicVector v, S& sink)
{
    if constexpr (sf::sinkFastValues<S>) {
        return iterateFastT<Vectoring>(mode, schedule, angles, v, sink);
    } else {
        float x = v.x;
        float y = v.y;
        float z = v.z;
        for (uint32_t k = 0; k < schedule.size(); ++k) {
            int i = static_cast<int>(schedule[k]);
            float xs = pimLdexpT(x, -i, sink);
            float ys = pimLdexpT(y, -i, sink);
            float ang = angles.readT(k, sink);
            sink.charge(iterControlCost);
            bool positive = positiveStep<Vectoring>(y, z);
            // Circular rotation: x -= s*ys; hyperbolic: x += s*ys.
            bool xPlus = (mode == CordicMode::Hyperbolic) == positive;
            x = xPlus ? sf::addT(x, ys, sink) : sf::subT(x, ys, sink);
            y = positive ? sf::addT(y, xs, sink)
                         : sf::subT(y, xs, sink);
            z = positive ? sf::subT(z, ang, sink)
                         : sf::addT(z, ang, sink);
        }
        return {x, y, z};
    }
}

/** @p a + @p b when @p mask is 0, @p a - @p b when it is all ones
 * (two's-complement wrap, so no signed overflow). */
inline int32_t
addOrSub(int32_t a, int32_t b, uint32_t mask)
{
    uint32_t term = (static_cast<uint32_t>(b) ^ mask) - mask;
    return static_cast<int32_t>(static_cast<uint32_t>(a) + term);
}

/**
 * The Q3.28 counterpart of iterateT, one loop for both lanes: values
 * are native integer arithmetic, with each add/sub chosen by a sign
 * mask instead of a branch. A fast-value sink resolves the angle table
 * once per call (MRAM keeps one readT per step) and gets the call's
 * charges and notes added once.
 */
template <bool Vectoring, class S>
inline CordicFixedVector
iterateFixedT(CordicMode mode, const std::vector<uint32_t>& schedule,
              const LutStore<int32_t>& angles, int32_t x, int32_t y,
              int32_t z, S& sink)
{
    constexpr bool fast = sf::sinkFastValues<S>;
    LutView<int32_t> view(nullptr);
    if constexpr (fast)
        view = angles.viewT(sink);
    // Circular rotation: x -= s*ys; hyperbolic: x += s*ys.
    const uint32_t xFlip = mode == CordicMode::Hyperbolic ? 0u : ~0u;
    for (uint32_t k = 0; k < schedule.size(); ++k) {
        // The exact floor shift: an int32 shifted right by 31 or more
        // places is 0 or -1 (and a shift by 32 or more is undefined).
        int i = static_cast<int>(std::min(schedule[k], 31u));
        int32_t xs = x >> i;
        int32_t ys = y >> i;
        int32_t ang = view ? view[k] : angles.readT(k, sink);
        if constexpr (!fast)
            sink.charge(fixedStepCost);
        // All ones on a negative step: rotation steps by sign(z),
        // vectoring by -sign(y).
        uint32_t neg = Vectoring ? ~static_cast<uint32_t>(y >> 31)
                                 : static_cast<uint32_t>(z >> 31);
        int32_t nx = addOrSub(x, ys, neg ^ xFlip);
        y = addOrSub(y, xs, neg);
        z = addOrSub(z, ang, ~neg);
        x = nx;
    }
    if constexpr (fast) {
        const uint64_t n = schedule.size();
        const uint64_t reads = view ? n : 0;
        sink.chargeClassWide(InstrClass::IntAlu,
                             n * fixedStepCost + reads * lutReadCost);
        sink.noteWide(OpClass::TableRead, reads);
    }
    return {Fixed::fromRaw(x), Fixed::fromRaw(y), Fixed::fromRaw(z)};
}

/**
 * ldexpDownFast(., @p shift) in every lane of @p bits: the exponent-
 * field result where that path applies. Lanes where it does not
 * (zero, subnormal, inf/NaN, exponent <= @p shift) are set in
 * @p slow; their returned bits are garbage (a shift of 256 or more
 * wraps the field) until the caller's pimLdexpT fix-up replaces them.
 * @p shift is below 2^30 (LutStore::checkSize bounds a schedule), so
 * the exponent compares fit signed lanes.
 */
inline sf::VBits
shiftDownBits(sf::VBits bits, uint32_t shift, sf::VBits& slow)
{
    const sf::VInt e = reinterpret_cast<sf::VInt>((bits >> 23) & 0xffu);
    const int32_t s = static_cast<int32_t>(shift);
    slow = reinterpret_cast<sf::VBits>((e <= s) | (e == 0xff));
    return bits - (shift << 23);
}

/**
 * The block lane of iterateT: @p Vectors * simdLanes independent start
 * vectors @p v, one per SIMD lane, stepped through each iteration
 * together and overwritten with their results. Each lane computes what
 * iterateFastT computes for its element: the same host additions, the
 * same sign-bit flips, the exponent-field shift in-vector with a
 * scalar pimLdexpT fix-up for the lanes it does not cover. @p view is
 * the angle table's host or WRAM view (an MRAM table has none and
 * never reaches this lane). The block's charge and note totals are
 * added once, as iterateFastT adds its per-call totals.
 */
template <bool Vectoring, int Vectors, class S>
inline void
iterateBlockT(CordicMode mode, const std::vector<uint32_t>& schedule,
              LutView<float> view, CordicVector* v, S& sink)
{
    using sf::VBits;
    using sf::VFloat;
    constexpr int lanes = sf::simdLanes;
    constexpr uint32_t signBit = 0x80000000u;
    const uint32_t xFlip =
        mode == CordicMode::Hyperbolic ? 0u : signBit;
    VBits x[Vectors], y[Vectors], z[Vectors];
    for (int b = 0; b < Vectors; ++b)
        for (int l = 0; l < lanes; ++l) {
            x[b][l] = floatBits(v[b * lanes + l].x);
            y[b][l] = floatBits(v[b * lanes + l].y);
            z[b][l] = floatBits(v[b * lanes + l].z);
        }
    auto sum = [](VBits a, VBits b) {
        return reinterpret_cast<VFloat>(a) + reinterpret_cast<VFloat>(b);
    };
    // Per lane at most Vectors * n subtractions: below 2^32, since a
    // schedule has fewer than 2^30 steps (LutStore::checkSize).
    VBits xSubs = {};
    uint64_t slowShifts = 0;
    const uint64_t n = schedule.size();
    for (uint32_t k = 0; k < n; ++k) {
        const uint32_t i = schedule[k];
        const uint32_t ang = floatBits(view[k]);
        VBits xs[Vectors], ys[Vectors], xSlow[Vectors], ySlow[Vectors];
        VBits anySlow = {};
        for (int b = 0; b < Vectors; ++b) {
            xs[b] = shiftDownBits(x[b], i, xSlow[b]);
            ys[b] = shiftDownBits(y[b], i, ySlow[b]);
            anySlow |= xSlow[b] | ySlow[b];
        }
        if (sf::anyLane(anySlow)) {
            auto fix = [&](VBits& out, const VBits& in, const VBits& slow) {
                for (int l = 0; l < lanes; ++l)
                    if (slow[l]) {
                        out[l] = floatBits(pimLdexpT(
                            bitsToFloat(in[l]), -static_cast<int>(i),
                            sink));
                        ++slowShifts;
                    }
            };
            for (int b = 0; b < Vectors; ++b) {
                fix(xs[b], x[b], xSlow[b]);
                fix(ys[b], y[b], ySlow[b]);
            }
        }
        // Only the component whose sign picks the step (z in rotation,
        // y in vectoring) needs canonical() after every step. A NaN in
        // the other two reaches nothing but its own final value: its
        // shift takes pimLdexpT's pass-through, with the same charge
        // for any payload, and every sum with it is a NaN. So they take
        // canonical() once, after the last step (a schedule of no steps
        // returns the start vector untouched, as iterateFastT does).
        for (int b = 0; b < Vectors; ++b) {
            // 0 on a positive step, the sign bit on a negative one.
            const VBits neg = Vectoring ? ~y[b] & signBit : z[b] & signBit;
            const VBits xNeg = neg ^ xFlip;
            xSubs += xNeg >> 31;
            const VFloat nx = sum(x[b], ys[b] ^ xNeg);
            const VFloat ny = sum(y[b], xs[b] ^ neg);
            const VFloat nz = sum(z[b], (neg ^ signBit) ^ ang);
            x[b] = reinterpret_cast<VBits>(nx);
            y[b] = Vectoring ? sf::canonicalBits(ny)
                             : reinterpret_cast<VBits>(ny);
            z[b] = Vectoring ? reinterpret_cast<VBits>(nz)
                             : sf::canonicalBits(nz);
        }
    }
    for (int b = 0; b < Vectors && n > 0; ++b) {
        x[b] = sf::canonicalBits(reinterpret_cast<VFloat>(x[b]));
        VBits& other = Vectoring ? z[b] : y[b];
        other = sf::canonicalBits(reinterpret_cast<VFloat>(other));
    }
    for (int b = 0; b < Vectors; ++b)
        for (int l = 0; l < lanes; ++l)
            v[b * lanes + l] = {bitsToFloat(x[b][l]), bitsToFloat(y[b][l]),
                                bitsToFloat(z[b][l])};
    uint64_t subs = 0;
    for (int l = 0; l < lanes; ++l)
        subs += xSubs[l];
    const uint64_t steps = n * Vectors * lanes;
    const uint64_t inlinedShifts = 2 * steps - slowShifts;
    sink.chargeClassWide(InstrClass::IntAlu,
                         steps * (iterControlCost + lutReadCost) +
                             inlinedShifts *
                                 ldexp_detail::fastPathCost);
    sink.chargeClassWide(InstrClass::SoftFloat,
                         steps * (3 * sf::core::addCharge + 1) + subs);
    sink.noteWide(OpClass::FloatAdd, 3 * steps);
    sink.noteWide(OpClass::Ldexp, inlinedShifts);
    sink.noteWide(OpClass::TableRead, steps);
}

/**
 * The block lane of iterateFixedT: @p Vectors * simdLanes independent
 * Q3.28 start vectors @p v stepped through each iteration together,
 * with iterateFixedT's shifts and sign-masked adds in every lane and
 * the block's charge and note totals added once.
 */
template <bool Vectoring, int Vectors, class S>
inline void
iterateFixedBlockT(CordicMode mode, const std::vector<uint32_t>& schedule,
                   LutView<int32_t> view, CordicFixedVector* v, S& sink)
{
    using sf::VBits;
    using sf::VInt;
    constexpr int lanes = sf::simdLanes;
    const uint32_t xFlip = mode == CordicMode::Hyperbolic ? 0u : ~0u;
    VBits x[Vectors], y[Vectors], z[Vectors];
    for (int b = 0; b < Vectors; ++b)
        for (int l = 0; l < lanes; ++l) {
            x[b][l] = static_cast<uint32_t>(v[b * lanes + l].x.raw());
            y[b][l] = static_cast<uint32_t>(v[b * lanes + l].y.raw());
            z[b][l] = static_cast<uint32_t>(v[b * lanes + l].z.raw());
        }
    // addOrSub in every lane, in unsigned (wrapping) arithmetic.
    auto addOrSubV = [](VBits a, VBits b, VBits mask) {
        return a + ((b ^ mask) - mask);
    };
    auto floorShift = [](VBits a, int i) {
        return reinterpret_cast<VBits>(reinterpret_cast<VInt>(a) >> i);
    };
    const uint64_t n = schedule.size();
    for (uint32_t k = 0; k < n; ++k) {
        const int i = static_cast<int>(std::min(schedule[k], 31u));
        const VBits ang = VBits{} + static_cast<uint32_t>(view[k]);
        for (int b = 0; b < Vectors; ++b) {
            const VBits xs = floorShift(x[b], i);
            const VBits ys = floorShift(y[b], i);
            // All ones on a negative step.
            const VBits neg = Vectoring ? ~floorShift(y[b], 31)
                                        : floorShift(z[b], 31);
            const VBits nx = addOrSubV(x[b], ys, neg ^ xFlip);
            y[b] = addOrSubV(y[b], xs, neg);
            z[b] = addOrSubV(z[b], ang, ~neg);
            x[b] = nx;
        }
    }
    for (int b = 0; b < Vectors; ++b)
        for (int l = 0; l < lanes; ++l)
            v[b * lanes + l] = {
                Fixed::fromRaw(static_cast<int32_t>(x[b][l])),
                Fixed::fromRaw(static_cast<int32_t>(y[b][l])),
                Fixed::fromRaw(static_cast<int32_t>(z[b][l]))};
    const uint64_t steps = n * Vectors * lanes;
    sink.chargeClassWide(InstrClass::IntAlu,
                         steps * (fixedStepCost + lutReadCost));
    sink.noteWide(OpClass::TableRead, steps);
}

} // namespace cordic_detail

/**
 * Floating-point CORDIC engine.
 *
 * Hosts the angle table (atan/atanh of 2^-i, including the convergence
 * repeats at i = 4, 13, 40 for the hyperbolic mode) and the gain
 * constants for the exact iteration schedule.
 */
class CordicEngine
{
  public:
    /** (x, y, z) state after the final iteration. */
    using Result = CordicVector;

    /**
     * Build an engine.
     * @param mode rotation family.
     * @param iterations number of CORDIC iterations (schedule length).
     * @param placement where the angle table lives on the PIM core.
     */
    CordicEngine(CordicMode mode, uint32_t iterations,
                 Placement placement);

    /**
     * Rotation mode: drive z to 0 starting from (invGain, 0, z0).
     * Circular: returns (cos z0, sin z0, ~0).
     * Hyperbolic: returns (cosh z0, sinh z0, ~0); requires |z0| < 1.11.
     */
    Result rotate(float z0, InstrSink* sink) const;

    /**
     * Vectoring mode: drive y to 0 starting from (x0, y0, 0).
     * Hyperbolic: returns z = atanh(y0/x0) and x = gain*sqrt(x0^2-y0^2).
     * Circular: returns z = atan(y0/x0) and x = gain*sqrt(x0^2+y0^2).
     */
    Result vector(float x0, float y0, InstrSink* sink) const;

    /** Sink-template body of rotate() (batch path inlines it). */
    template <class S>
    Result
    rotateT(float z0, S& sink) const
    {
        return cordic_detail::iterateT<false>(
            mode_, schedule_, table_, startT(CordicRotation<float>{z0}, sink),
            sink);
    }

    /** Sink-template body of vector() (batch path inlines it). */
    template <class S>
    Result
    vectorT(float x0, float y0, S& sink) const
    {
        return cordic_detail::iterateT<true>(
            mode_, schedule_, table_,
            startT(CordicVectoring<float>{x0, y0}, sink), sink);
    }

    /** rotateT's prologue: its start vector (invGain, 0, z0). */
    template <class S>
    CordicVector
    startT(CordicRotation<float> in, S& sink) const
    {
        sink.charge(cordic_detail::startupCost);
        return {invGain_, 0.0f, in.z0};
    }

    /** vectorT's prologue: its start vector (x0, y0, 0). */
    template <class S>
    CordicVector
    startT(CordicVectoring<float> in, S& sink) const
    {
        sink.charge(cordic_detail::startupCost);
        return {in.x0, in.y0, 0.0f};
    }

    /** The angle table's view for @p sink (LutStore::viewT): empty for
     * MRAM, whose calls cannot take the block lane. */
    template <class S>
    LutView<float>
    angleViewT(S& sink) const
    {
        return table_.viewT(sink);
    }

    /** The iterations of startT's vectors @p v, in the block lane
     * (cordic_detail::iterateBlockT) over @p view = angleViewT(). */
    template <bool Vectoring, int Vectors, class S>
    void
    iterateBlockT(LutView<float> view, CordicVector* v, S& sink) const
    {
        cordic_detail::iterateBlockT<Vectoring, Vectors>(mode_, schedule_,
                                                         view, v, sink);
    }

    CordicMode mode() const { return mode_; }

    uint32_t iterations() const { return iterations_; }

    /** 1/gain of the full schedule (rotation-mode start value). */
    float invGain() const { return invGain_; }

    /** Gain of the full schedule. */
    float gain() const { return gain_; }

    /** Bytes of PIM memory the angle table occupies. */
    uint32_t memoryBytes() const { return table_.bytes(); }

    /** Place the angle table on a simulated core. */
    void attach(sim::DpuCore& core) { table_.attach(core); }

    /** The iteration schedule (shift amounts, with hyperbolic repeats). */
    const std::vector<uint32_t>& schedule() const { return schedule_; }

  private:
    CordicMode mode_;
    uint32_t iterations_;
    std::vector<uint32_t> schedule_;
    LutStore<float> table_; ///< rotation angle per scheduled iteration
    float invGain_ = 1.0f;
    float gain_ = 1.0f;
};

/**
 * Q3.28 fixed-point CORDIC engine (ablation).
 *
 * Same iteration schedule as CordicEngine, but the state is Q3.28 and
 * each iteration costs two native shifts and three native adds, which
 * is why this variant is roughly an order of magnitude cheaper per
 * iteration than the float engine while capping accuracy near 2^-28.
 */
class CordicFixedEngine
{
  public:
    using Result = CordicFixedVector;

    CordicFixedEngine(CordicMode mode, uint32_t iterations,
                      Placement placement);

    /** Rotation mode on Q3.28 state; see CordicEngine::rotate. */
    Result rotate(Fixed z0, InstrSink* sink) const;

    /** Vectoring mode on Q3.28 state; see CordicEngine::vector. */
    Result vector(Fixed x0, Fixed y0, InstrSink* sink) const;

    /** Sink-template body of rotate() (batch path inlines it). */
    template <class S>
    Result
    rotateT(Fixed z0, S& sink) const
    {
        Result v = startT(CordicRotation<Fixed>{z0}, sink);
        return cordic_detail::iterateFixedT<false>(
            mode_, schedule_, table_, v.x.raw(), v.y.raw(), v.z.raw(),
            sink);
    }

    /** Sink-template body of vector() (batch path inlines it). */
    template <class S>
    Result
    vectorT(Fixed x0, Fixed y0, S& sink) const
    {
        Result v = startT(CordicVectoring<Fixed>{x0, y0}, sink);
        return cordic_detail::iterateFixedT<true>(
            mode_, schedule_, table_, v.x.raw(), v.y.raw(), v.z.raw(),
            sink);
    }

    /** rotateT's prologue: its start vector (invGain, 0, z0). */
    template <class S>
    Result
    startT(CordicRotation<Fixed> in, S& sink) const
    {
        sink.charge(cordic_detail::startupCost);
        return {invGain_, Fixed(), in.z0};
    }

    /** vectorT's prologue: its start vector (x0, y0, 0). */
    template <class S>
    Result
    startT(CordicVectoring<Fixed> in, S& sink) const
    {
        sink.charge(cordic_detail::startupCost);
        return {in.x0, in.y0, Fixed()};
    }

    /** The angle table's view for @p sink; see CordicEngine. */
    template <class S>
    LutView<int32_t>
    angleViewT(S& sink) const
    {
        return table_.viewT(sink);
    }

    /** The iterations of startT's vectors @p v, in the block lane
     * (cordic_detail::iterateFixedBlockT). */
    template <bool Vectoring, int Vectors, class S>
    void
    iterateBlockT(LutView<int32_t> view, Result* v, S& sink) const
    {
        cordic_detail::iterateFixedBlockT<Vectoring, Vectors>(
            mode_, schedule_, view, v, sink);
    }

    uint32_t iterations() const { return iterations_; }

    Fixed invGain() const { return invGain_; }

    uint32_t memoryBytes() const { return table_.bytes(); }

    void attach(sim::DpuCore& core) { table_.attach(core); }

  private:
    CordicMode mode_;
    uint32_t iterations_;
    std::vector<uint32_t> schedule_;
    LutStore<int32_t> table_; ///< Q3.28 rotation angles
    Fixed invGain_;
};

/**
 * Build the iteration schedule for a mode: circular uses i = 0..n-1;
 * hyperbolic uses i = 1..k with the standard convergence repeats at
 * i = 4, 13, 40, truncated to @p iterations entries.
 * @throws std::bad_alloc when an angle table of @p iterations entries
 *         would not fit a PIM core's address space
 *         (LutStore::checkSize), before anything is built.
 */
std::vector<uint32_t> cordicSchedule(CordicMode mode, uint32_t iterations);

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_CORDIC_H
