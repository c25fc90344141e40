/**
 * @file
 * Polynomial-approximation baseline (Horner evaluation).
 *
 * The paper's PIM baseline implementations use polynomial approximation
 * (Taylor / minimax, refs [67, 124]); on a PIM core each polynomial
 * degree costs one emulated float multiply and one add, i.e. roughly
 * one float multiplication per bit of precision - which is exactly the
 * disadvantage TransPimLib's LUT methods remove (Section 4.2.1).
 *
 * Horner's rule, PolyExp and PolyCndf are each written once, as a
 * template over a lane type (softfloat_lanes.h). The element lane is
 * the per-element body, the one definition of values and charges: with
 * SinkRef it runs the emulated cores, with the batch path's BatchSink
 * their fast values. The vector lane runs the same body on a block of
 * elements in SIMD lanes (PolyCndf::block), for the batch path.
 */

#ifndef TPL_TRANSPIM_POLY_H
#define TPL_TRANSPIM_POLY_H

#include <memory>
#include <span>
#include <vector>

#include "common/instr_sink.h"
#include "softfloat/softfloat_core.h"
#include "softfloat/softfloat_lanes.h"
#include "transpim/ldexp.h"
#include "transpim/range.h"

namespace tpl {
namespace transpim {

/**
 * Horner's rule in lane L (softfloat_lanes.h) on @p coeffs (ascending,
 * c0 first) at @p x: per coefficient below the leading one, a
 * coefficient load and loop control (IntAlu 2), a multiply and an add.
 */
template <class L>
inline typename L::Float
horner(L& lane, std::span<const float> coeffs, typename L::Float x)
{
    if (coeffs.empty())
        return lane.splat(0.0f);
    auto acc = lane.splat(coeffs.back());
    for (std::size_t i = coeffs.size() - 1; i-- > 0;) {
        lane.charge(2);
        acc = lane.add(lane.mul(acc, x), lane.splat(coeffs[i]));
    }
    return acc;
}

/**
 * Dense polynomial evaluated with Horner's rule in emulated binary32.
 */
class Polynomial
{
  public:
    /** @param coeffs c0 + c1 x + c2 x^2 + ... (ascending order). */
    explicit Polynomial(std::vector<float> coeffs)
        : coeffs_(std::move(coeffs))
    {}

    /** Evaluate at @p x; degree() multiplies and adds. */
    float eval(float x, InstrSink* sink) const;

    /** Sink-template body of eval(): horner() in the element lane
     * (batch path inlines it). */
    template <class S>
    float
    evalT(float x, S& sink) const
    {
        sf::ElemLane<S> lane(sink);
        return horner(lane, coeffs_, x);
    }

    uint32_t degree() const
    {
        return coeffs_.empty()
                   ? 0
                   : static_cast<uint32_t>(coeffs_.size()) - 1;
    }

    const std::vector<float>& coeffs() const { return coeffs_; }

  private:
    std::vector<float> coeffs_;
};

/**
 * e^x by the polynomial method: splitExp's x = k*ln2 + r, the Taylor
 * polynomial @p poly at r, then ldexp by k.
 */
struct PolyExp
{
    std::shared_ptr<const Polynomial> poly;

    /** The body, in lane L. */
    template <class L>
    typename L::Float
    eval(L& lane, typename L::Float x) const
    {
        const auto s = splitExp(lane, x);
        return lane.ldexp(horner(lane, poly->coeffs(), s.r), s.k);
    }

    /** The body in the element lane with sink @p sink. */
    template <class S>
    float
    operator()(float x, S& sink) const
    {
        sf::ElemLane<S> lane(sink);
        return eval(lane, x);
    }
};

/**
 * The Abramowitz-Stegun 26.2.17 CNDF, the formulation the original
 * Blackscholes benchmark uses: one exp, one divide and the degree-5
 * polynomial @p tail (cndfTail()) in t = 1/(1 + 0.2316419|x|).
 */
struct PolyCndf
{
    PolyExp exp;
    std::shared_ptr<const Polynomial> tail;

    /** The body, in lane L. */
    template <class L>
    typename L::Float
    eval(L& lane, typename L::Float x) const
    {
        const auto one = lane.splat(1.0f);
        const auto ax = lane.abs(x);
        const auto t = lane.div(
            one, lane.add(one, lane.mul(lane.splat(kTailScale), ax)));
        // phi(x) = exp(-x^2/2) / sqrt(2*pi)
        const auto x2 = lane.mul(x, x);
        const auto e = exp.eval(lane, lane.neg(lane.ldexp(x2, -1)));
        const auto phi = lane.mul(lane.splat(kInvSqrt2Pi), e);
        const auto tl = lane.mul(phi, horner(lane, tail->coeffs(), t));
        const auto cnd = lane.sub(one, tl);
        lane.charge(2);
        return lane.whereNegative(x, cnd, [](auto& l, const auto& c) {
            return l.sub(l.splat(1.0f), c);
        });
    }

    /** The body in the element lane with sink @p sink. */
    template <class S>
    float
    operator()(float x, S& sink) const
    {
        sf::ElemLane<S> lane(sink);
        return eval(lane, x);
    }

    /**
     * The body on the @p Vectors * simdLanes elements at @p in in the
     * vector lane, into @p out, adding the block's charges and notes
     * to the fast-value sink @p sink once. Returns false, touching
     * neither @p out nor @p sink, when any lane leaves a fast path
     * (softfloat_lanes.h): the caller then runs the block per element.
     * @p in may alias @p out.
     */
    template <int Vectors, class S>
    bool
    block(const float* in, float* out, S& sink) const
    {
        sf::VecLane<Vectors * sf::simdLanes> lane;
        const auto cnd = eval(lane, lane.load(in));
        if (lane.anySlow())
            return false;
        lane.store(out, cnd);
        lane.addTo(sink);
        return true;
    }

    static constexpr float kTailScale = 0.2316419f;
    static constexpr float kInvSqrt2Pi = 0.39894228040143267794f;
};

/// @name Coefficient builders (host-side setup).
/// @{

/** Taylor coefficients of sin around 0 (odd terms), up to @p degree. */
Polynomial sinTaylor(uint32_t degree);

/** Taylor coefficients of cos around 0 (even terms), up to @p degree. */
Polynomial cosTaylor(uint32_t degree);

/** Taylor coefficients of exp around 0, up to @p degree. */
Polynomial expTaylor(uint32_t degree);

/** Coefficients of log(1 + u) around 0, up to @p degree. */
Polynomial log1pTaylor(uint32_t degree);

/** Binomial-series coefficients of sqrt(1 + u), up to @p degree. */
Polynomial sqrt1pSeries(uint32_t degree);

/** Binomial-series coefficients of 1/sqrt(1 + u), up to @p degree. */
Polynomial rsqrt1pSeries(uint32_t degree);

/** Taylor coefficients of atan around 0 (odd terms), up to @p degree. */
Polynomial atanTaylor(uint32_t degree);

/** The degree-5 polynomial of the Abramowitz-Stegun 26.2.17 CNDF. */
Polynomial cndfTail();

/// @}

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_POLY_H
