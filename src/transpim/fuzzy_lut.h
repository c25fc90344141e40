/**
 * @file
 * Fuzzy lookup-table methods with uniform spacing: M-LUT and L-LUT.
 *
 * Both methods map an input x to a table address with an affine
 * transform a(x) = round((x - p) * k) (Section 3.2 of the paper):
 *
 *  - M-LUT uses an arbitrary density k, paying one float multiplication
 *    per query.
 *  - L-LUT constrains k to a power of two so the multiplication becomes
 *    an ldexp (exponent add) - losing some freedom in table design but
 *    eliminating the multiply, which dominates query cost on a PIM core
 *    without an FPU.
 *
 * Interpolated variants read two adjacent entries and blend them with
 * delta = (x-p)*k - floor((x-p)*k), adding exactly one multiplication.
 * The fixed-point L-LUT variant replaces the ldexp with a native shift
 * on Q3.28 values and interpolates with one emulated integer multiply.
 */

#ifndef TPL_TRANSPIM_FUZZY_LUT_H
#define TPL_TRANSPIM_FUZZY_LUT_H

#include <algorithm>
#include <functional>

#include "common/emu_int.h"
#include "common/fixed_point.h"
#include "common/instr_sink.h"
#include "softfloat/softfloat_core.h"
#include "transpim/ldexp.h"
#include "transpim/placement.h"

namespace tpl {
namespace transpim {

/** Real-valued function used to fill tables at setup time. */
using TableFn = std::function<double(double)>;

namespace lut_detail {

/** Clamp an address into [0, limit]; two compare-and-select instrs. */
template <class S>
inline int32_t
clampIndexT(int32_t i, int32_t limit, S& sink)
{
    sink.charge(2);
    return std::clamp(i, 0, limit);
}

} // namespace lut_detail

/**
 * Multiplication-based fuzzy lookup table (M-LUT).
 */
class MLut
{
  public:
    /**
     * Build an M-LUT for @p f over [lo, hi] with @p entries entries.
     * Interpolated tables store f on the grid points; non-interpolated
     * tables also store f on the grid points, which is optimal for the
     * round-to-nearest address function.
     */
    MLut(const TableFn& f, double lo, double hi, uint32_t entries,
         bool interpolated, Placement placement);

    /** Approximate f(x); x is clamped into [lo, hi]. */
    float eval(float x, InstrSink* sink) const;

    /** Sink-template body of eval() (batch path inlines it). */
    template <class S>
    float
    evalT(float x, S& sink) const
    {
        float t = x;
        if (p_ != 0.0f)
            t = sf::subT(x, p_, sink);
        t = sf::mulT(t, k_, sink);
        if (!interpolated_) {
            int32_t i = sf::toI32RoundT(t, sink);
            i = lut_detail::clampIndexT(
                i, static_cast<int32_t>(table_.size()) - 1, sink);
            return table_.readT(static_cast<uint32_t>(i), sink);
        }
        int32_t i = sf::toI32FloorT(t, sink);
        i = lut_detail::clampIndexT(
            i, static_cast<int32_t>(table_.size()) - 2, sink);
        float fi = sf::fromI32T(i, sink);
        float delta = sf::subT(t, fi, sink);
        float l0 = table_.readT(static_cast<uint32_t>(i), sink);
        float l1 = table_.readT(static_cast<uint32_t>(i) + 1, sink);
        float d = sf::subT(l1, l0, sink);
        return sf::addT(l0, sf::mulT(d, delta, sink), sink);
    }

    uint32_t memoryBytes() const { return table_.bytes(); }

    void attach(sim::DpuCore& core) { table_.attach(core); }

    /** Table density k (entries per unit input). */
    float density() const { return k_; }

  private:
    LutStore<float> table_;
    float p_;
    float k_;
    bool interpolated_;
};

/**
 * LDEXP-based fuzzy lookup table (L-LUT): density constrained to 2^e.
 */
class LLut
{
  public:
    /**
     * Build an L-LUT for @p f over [lo, hi] using at most @p maxEntries
     * entries; the actual density is the largest power of two that
     * fits, so fewer entries may be allocated (the paper's [0,5] vs
     * [0,6] example in Section 3.2.2).
     */
    LLut(const TableFn& f, double lo, double hi, uint32_t maxEntries,
         bool interpolated, Placement placement);

    float eval(float x, InstrSink* sink) const;

    /** Sink-template body of eval() (batch path inlines it). */
    template <class S>
    float
    evalT(float x, S& sink) const
    {
        float t = x;
        if (p_ != 0.0f)
            t = sf::subT(x, p_, sink);
        t = pimLdexpT(t, e_, sink);
        if (!interpolated_) {
            int32_t i = sf::toI32RoundT(t, sink);
            i = lut_detail::clampIndexT(
                i, static_cast<int32_t>(table_.size()) - 1, sink);
            return table_.readT(static_cast<uint32_t>(i), sink);
        }
        int32_t i = sf::toI32FloorT(t, sink);
        i = lut_detail::clampIndexT(
            i, static_cast<int32_t>(table_.size()) - 2, sink);
        float fi = sf::fromI32T(i, sink);
        float delta = sf::subT(t, fi, sink);
        float l0 = table_.readT(static_cast<uint32_t>(i), sink);
        float l1 = table_.readT(static_cast<uint32_t>(i) + 1, sink);
        float d = sf::subT(l1, l0, sink);
        return sf::addT(l0, sf::mulT(d, delta, sink), sink);
    }

    uint32_t memoryBytes() const { return table_.bytes(); }

    void attach(sim::DpuCore& core) { table_.attach(core); }

    /** log2 of the density (the ldexp shift amount). */
    int densityLog2() const { return e_; }

    uint32_t entries() const { return table_.size(); }

  private:
    LutStore<float> table_;
    float p_;
    int e_;
    bool interpolated_;
};

/**
 * Fixed-point L-LUT on Q3.28 values: native shifts for addressing, one
 * emulated integer multiply for interpolation.
 */
class LLutFixed
{
  public:
    LLutFixed(const TableFn& f, double lo, double hi, uint32_t maxEntries,
              bool interpolated, Placement placement);

    /** Q3.28 in, Q3.28 out (the fixed-point kernel pipeline). */
    Fixed evalFixed(Fixed x, InstrSink* sink) const;

    /** Float in, float out: converts at both ends, as a float kernel
     * calling the fixed-point method would. */
    float eval(float x, InstrSink* sink) const;

    /** Sink-template body of evalFixed() (batch path inlines it). */
    template <class S>
    Fixed
    evalFixedT(Fixed x, S& sink) const
    {
        // t = x - p as *unsigned* raw arithmetic: for in-range inputs
        // the wrap-free difference (x - lo) * 2^28 fits 32 unsigned
        // bits even when the domain spans the full [-8, 8) Q3.28 range
        // (e.g. tanh), which a signed Q3.28 subtract could not
        // represent.
        sink.charge(1);
        uint32_t t = static_cast<uint32_t>(x.raw()) -
                     static_cast<uint32_t>(pRaw_);
        int32_t limit = static_cast<int32_t>(table_.size()) - 1;
        if (!interpolated_) {
            // Round to nearest: add half-spacing, logical shift right.
            sink.charge(2);
            int32_t i = static_cast<int32_t>(
                (t + (1u << (shift_ - 1))) >> shift_);
            i = lut_detail::clampIndexT(i, limit, sink);
            return Fixed::fromRaw(
                table_.readT(static_cast<uint32_t>(i), sink));
        }
        sink.charge(2); // floor shift + mask
        int32_t i = static_cast<int32_t>(t >> shift_);
        int32_t deltaRaw =
            static_cast<int32_t>(t & ((1u << shift_) - 1u));
        i = lut_detail::clampIndexT(i, limit - 1, sink);
        int32_t l0 = table_.readT(static_cast<uint32_t>(i), sink);
        int32_t l1 = table_.readT(static_cast<uint32_t>(i) + 1, sink);
        sink.charge(1); // diff
        int32_t d = l1 - l0;
        // result = l0 + (d * delta) >> shift: one emulated multiply.
        sink.note(OpClass::IntMul);
        int64_t prod = emuMulS32T(d, deltaRaw, sink);
        sink.charge(3); // 64-bit shift + add
        return Fixed::fromRaw(l0 +
                              static_cast<int32_t>(prod >> shift_));
    }

    /** Sink-template body of eval() (batch path inlines it). */
    template <class S>
    float
    evalT(float x, S& sink) const
    {
        Fixed xf = sf::toFixedT(x, sink);
        Fixed y = evalFixedT(xf, sink);
        return sf::fromFixedT(y, sink);
    }

    uint32_t memoryBytes() const { return table_.bytes(); }

    void attach(sim::DpuCore& core) { table_.attach(core); }

    int densityLog2() const { return e_; }

    /** Host-side Q3.28 entries (e.g. for hand-written kernels). */
    std::span<const int32_t> hostEntries() const
    {
        return table_.host();
    }

  private:
    LutStore<int32_t> table_;
    int32_t pRaw_;
    int e_;      ///< log2 density
    int shift_;  ///< fracBits - e_: right-shift from Q3.28 to address
    bool interpolated_;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_FUZZY_LUT_H
