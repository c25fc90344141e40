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
 * arithmetic, with the emulated loop's values, charges and notes.
 * Each engine's iterations are one body written over the register
 * width W (cordic_detail::iterateLanesT for float, iterateFixedT for
 * Q3.28), which steps W independent start vectors through each
 * iteration together, one per register lane. W = 1 is the per-element
 * lane (rotateT, vectorT), which also serves MRAM angle tables with one
 * readT per step; a block of Vectors * simdLanes start vectors is the
 * block lane (iterateBlockT). An engine call splits into startT (the
 * prologue, per element) and the iterations, so a batch can gather a
 * block's start vectors, run the block lane, and finish each element.
 * The emulated loop of iterateT stays separate: it is the oracle both
 * lanes are tested against.
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
 * pimLdexpT(., -@p shift)'s exponent-field path in every lane of
 * @p bits, where that path applies. Lanes where it does not (zero,
 * subnormal, inf/NaN, exponent <= @p shift) are set in @p slow; their
 * returned bits are garbage (a shift of 256 or more wraps the field)
 * until the caller's pimLdexpT fix-up replaces them. @p shift is below
 * 2^30 (LutStore::checkSize bounds a schedule), so the exponent
 * compares fit signed lanes.
 */
template <class B>
inline B
shiftDownBits(B bits, uint32_t shift, B& slow)
{
    using I = typename sf::SimdRegs<sizeof(B) / sizeof(uint32_t)>::Int;
    const I e = reinterpret_cast<I>((bits >> 23) & 0xffu);
    const int32_t s = static_cast<int32_t>(shift);
    slow = reinterpret_cast<B>((e <= s) | (e == 0xff));
    return bits - (shift << 23);
}

/**
 * Angle @p k of a W-lane iteration: one readT for an emulated sink or
 * without a @p view (MRAM), else the view's entry. A block (W > 1)
 * always has a view, so its loop holds no DMA call.
 */
template <int W, class T, class S>
inline T
angleAt(const LutStore<T>& angles, LutView<T> view, uint32_t k, S& sink)
{
    if constexpr (!sf::sinkFastValues<S>)
        return angles.readT(k, sink);
    else if constexpr (W > 1)
        return view[k];
    else
        return view ? view[k] : angles.readT(k, sink);
}

/**
 * The fast-value lane of the float CORDIC iterations (softfloat_core.h
 * states the contract): the @p W start vectors @p v, one per register
 * lane, stepped through each iteration together and overwritten with
 * their results, each with the emulated loop's values, charges and
 * notes, computed in host arithmetic. W = 1 is the per-element lane
 * (iterateT with a fast-value sink); a block of Vectors * simdLanes
 * start vectors is the block lane (the engines' iterateBlockT).
 *  - Each angle comes from @p view, the table's host or WRAM view,
 *    resolved once per call. Without one (an MRAM table, W = 1 only)
 *    each step makes one readT, in the emulated order.
 *  - subT(a, b) is addT(a, -b) plus one SoftFloat instruction, so each
 *    add/sub branch becomes a sign-bit flip of the added term, and the
 *    loop counts the subtractions.
 *  - The shifts take pimLdexpT's exponent-field path in-register, with
 *    a per-lane pimLdexpT fix-up for the lanes it does not cover.
 *  - Everything else is summed and added to the sink once.
 */
template <bool Vectoring, int W, class S>
inline void
iterateLanesT(CordicMode mode, const std::vector<uint32_t>& schedule,
              const LutStore<float>& angles, LutView<float> view,
              CordicVector* v, S& sink)
{
    // Width-1 registers for one element, else native ones.
    constexpr int lanes = W == 1 ? 1 : sf::simdLanes;
    constexpr int regs = W / lanes;
    using Bits = typename sf::SimdRegs<lanes>::Bits;
    using Float = typename sf::SimdRegs<lanes>::Float;
    constexpr uint32_t signBit = 0x80000000u;
    // On a positive step circular rotation subtracts the shifted y
    // term from x, hyperbolic rotation adds it.
    const uint32_t xFlip =
        mode == CordicMode::Hyperbolic ? 0u : signBit;
    Bits x[regs], y[regs], z[regs];
    for (int b = 0; b < regs; ++b)
        for (int l = 0; l < lanes; ++l) {
            x[b][l] = floatBits(v[b * lanes + l].x);
            y[b][l] = floatBits(v[b * lanes + l].y);
            z[b][l] = floatBits(v[b * lanes + l].z);
        }
    auto sum = [](Bits a, Bits b) {
        return reinterpret_cast<Float>(a) + reinterpret_cast<Float>(b);
    };
    // Per lane at most regs * n subtractions: below 2^32, since a
    // schedule has fewer than 2^30 steps (LutStore::checkSize).
    Bits xSubs = {};
    uint64_t slowShifts = 0;
    const uint64_t n = schedule.size();
    for (uint32_t k = 0; k < n; ++k) {
        const uint32_t i = schedule[k];
        const uint32_t ang = floatBits(angleAt<W>(angles, view, k, sink));
        Bits xs[regs], ys[regs], xSlow[regs], ySlow[regs];
        Bits anySlow = {};
        for (int b = 0; b < regs; ++b) {
            xs[b] = shiftDownBits(x[b], i, xSlow[b]);
            ys[b] = shiftDownBits(y[b], i, ySlow[b]);
            anySlow |= xSlow[b] | ySlow[b];
        }
        if (sf::anyLane(anySlow)) {
            auto fix = [&](Bits& out, const Bits& in, const Bits& slow) {
                for (int l = 0; l < lanes; ++l)
                    if (slow[l]) {
                        out[l] = floatBits(pimLdexpT(
                            bitsToFloat(in[l]), -static_cast<int>(i),
                            sink));
                        ++slowShifts;
                    }
            };
            for (int b = 0; b < regs; ++b) {
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
        // returns the start vector untouched).
        for (int b = 0; b < regs; ++b) {
            // 0 on a positive step, the sign bit on a negative one.
            const Bits neg = Vectoring ? ~y[b] & signBit : z[b] & signBit;
            const Bits xNeg = neg ^ xFlip;
            xSubs += xNeg >> 31;
            const Float nx = sum(x[b], ys[b] ^ xNeg);
            const Float ny = sum(y[b], xs[b] ^ neg);
            const Float nz = sum(z[b], (neg ^ signBit) ^ ang);
            x[b] = reinterpret_cast<Bits>(nx);
            y[b] = Vectoring ? sf::canonicalBits(ny)
                             : reinterpret_cast<Bits>(ny);
            z[b] = Vectoring ? reinterpret_cast<Bits>(nz)
                             : sf::canonicalBits(nz);
        }
    }
    for (int b = 0; b < regs && n > 0; ++b) {
        x[b] = sf::canonicalBits(reinterpret_cast<Float>(x[b]));
        Bits& other = Vectoring ? z[b] : y[b];
        other = sf::canonicalBits(reinterpret_cast<Float>(other));
    }
    for (int b = 0; b < regs; ++b)
        for (int l = 0; l < lanes; ++l)
            v[b * lanes + l] = {bitsToFloat(x[b][l]), bitsToFloat(y[b][l]),
                                bitsToFloat(z[b][l])};
    uint64_t subs = 0;
    for (int l = 0; l < lanes; ++l)
        subs += xSubs[l];
    // Per step: one of the y and z updates subtracts, and x's does
    // when xSubs counted it.
    const uint64_t steps = n * W;
    const uint64_t reads = view ? steps : 0;
    const uint64_t inlinedShifts = 2 * steps - slowShifts;
    sink.chargeClassWide(InstrClass::IntAlu,
                         steps * iterControlCost + reads * lutReadCost +
                             inlinedShifts *
                                 ldexp_detail::fastPathCost);
    sink.chargeClassWide(InstrClass::SoftFloat,
                         steps * (3 * sf::core::addCharge + 1) + subs);
    sink.noteWide(OpClass::FloatAdd, 3 * steps);
    sink.noteWide(OpClass::Ldexp, inlinedShifts);
    sink.noteWide(OpClass::TableRead, reads);
}

/**
 * The float CORDIC iterations over @p schedule from state @p v, with
 * one angle per step from @p angles: rotation (Vectoring = false)
 * drives z to zero, vectoring drives y to zero. Every float engine
 * (CordicEngine, the tail of CordicLutEngine) runs this one loop; a
 * fast-value sink takes iterateLanesT's per-element lane.
 */
template <bool Vectoring, class S>
inline CordicVector
iterateT(CordicMode mode, const std::vector<uint32_t>& schedule,
         const LutStore<float>& angles, CordicVector v, S& sink)
{
    if constexpr (sf::sinkFastValues<S>) {
        iterateLanesT<Vectoring, 1>(mode, schedule, angles,
                                    angles.viewT(sink), &v, sink);
        return v;
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

/**
 * The Q3.28 CORDIC iterations of the @p W start vectors @p v, one per
 * register lane, overwritten with their results: native shifts and
 * sign-masked adds, the same expressions at every width. W = 1 serves
 * rotateT and vectorT with any sink; a block of Vectors * simdLanes
 * start vectors is the block lane (the engine's iterateBlockT). An
 * emulated sink charges each step as it runs and reads each angle
 * through readT. A fast-value sink reads @p view where there is one
 * (an MRAM table keeps one readT per step) and gets the call's charges
 * and notes added once.
 */
template <bool Vectoring, int W, class S>
inline void
iterateFixedT(CordicMode mode, const std::vector<uint32_t>& schedule,
              const LutStore<int32_t>& angles, LutView<int32_t> view,
              CordicFixedVector* v, S& sink)
{
    constexpr bool fast = sf::sinkFastValues<S>;
    constexpr int lanes = W == 1 ? 1 : sf::simdLanes;
    constexpr int regs = W / lanes;
    using Bits = typename sf::SimdRegs<lanes>::Bits;
    using Int = typename sf::SimdRegs<lanes>::Int;
    // Circular rotation: x -= s*ys; hyperbolic: x += s*ys.
    const uint32_t xFlip = mode == CordicMode::Hyperbolic ? 0u : ~0u;
    Bits x[regs], y[regs], z[regs];
    for (int b = 0; b < regs; ++b)
        for (int l = 0; l < lanes; ++l) {
            x[b][l] = static_cast<uint32_t>(v[b * lanes + l].x.raw());
            y[b][l] = static_cast<uint32_t>(v[b * lanes + l].y.raw());
            z[b][l] = static_cast<uint32_t>(v[b * lanes + l].z.raw());
        }
    // a + b where mask is 0, a - b where it is all ones, in unsigned
    // (wrapping) arithmetic, so no signed overflow.
    auto addOrSub = [](Bits a, Bits b, Bits mask) {
        return a + ((b ^ mask) - mask);
    };
    auto floorShift = [](Bits a, int i) {
        return reinterpret_cast<Bits>(reinterpret_cast<Int>(a) >> i);
    };
    const uint64_t n = schedule.size();
    for (uint32_t k = 0; k < n; ++k) {
        // The exact floor shift: an int32 shifted right by 31 or more
        // places is 0 or -1 (and a shift by 32 or more is undefined).
        const int i = static_cast<int>(std::min(schedule[k], 31u));
        const Bits ang = Bits{} + static_cast<uint32_t>(
                                      angleAt<W>(angles, view, k, sink));
        if constexpr (!fast)
            sink.charge(fixedStepCost);
        for (int b = 0; b < regs; ++b) {
            const Bits xs = floorShift(x[b], i);
            const Bits ys = floorShift(y[b], i);
            // All ones on a negative step: rotation steps by sign(z),
            // vectoring by -sign(y).
            const Bits neg = Vectoring ? ~floorShift(y[b], 31)
                                       : floorShift(z[b], 31);
            const Bits nx = addOrSub(x[b], ys, neg ^ xFlip);
            y[b] = addOrSub(y[b], xs, neg);
            z[b] = addOrSub(z[b], ang, ~neg);
            x[b] = nx;
        }
    }
    for (int b = 0; b < regs; ++b)
        for (int l = 0; l < lanes; ++l)
            v[b * lanes + l] = {
                Fixed::fromRaw(static_cast<int32_t>(x[b][l])),
                Fixed::fromRaw(static_cast<int32_t>(y[b][l])),
                Fixed::fromRaw(static_cast<int32_t>(z[b][l]))};
    if constexpr (fast) {
        const uint64_t steps = n * W;
        const uint64_t reads = view ? steps : 0;
        sink.chargeClassWide(InstrClass::IntAlu,
                             steps * fixedStepCost + reads * lutReadCost);
        sink.noteWide(OpClass::TableRead, reads);
    }
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

    /** The iterations of the @p Vectors * simdLanes start vectors
     * @p v, in the block lane (cordic_detail::iterateLanesT) over
     * @p view = angleViewT(). */
    template <bool Vectoring, int Vectors, class S>
    void
    iterateBlockT(LutView<float> view, CordicVector* v, S& sink) const
    {
        cordic_detail::iterateLanesT<Vectoring, Vectors * sf::simdLanes>(
            mode_, schedule_, table_, view, v, sink);
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
        cordic_detail::iterateFixedT<false, 1>(
            mode_, schedule_, table_, angleViewT(sink), &v, sink);
        return v;
    }

    /** Sink-template body of vector() (batch path inlines it). */
    template <class S>
    Result
    vectorT(Fixed x0, Fixed y0, S& sink) const
    {
        Result v = startT(CordicVectoring<Fixed>{x0, y0}, sink);
        cordic_detail::iterateFixedT<true, 1>(
            mode_, schedule_, table_, angleViewT(sink), &v, sink);
        return v;
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

    /** The iterations of the @p Vectors * simdLanes start vectors
     * @p v, in the block lane (cordic_detail::iterateFixedT). */
    template <bool Vectoring, int Vectors, class S>
    void
    iterateBlockT(LutView<int32_t> view, Result* v, S& sink) const
    {
        cordic_detail::iterateFixedT<Vectoring, Vectors * sf::simdLanes>(
            mode_, schedule_, table_, view, v, sink);
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
