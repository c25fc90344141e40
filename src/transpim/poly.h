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
 * PolyExp and PolyCndf are polynomial bodies with a block lane: next
 * to the per-element body (operator(), the one definition of values
 * and charges) they run the same steps on a block of elements in SIMD
 * lanes (softfloat_lanes.h), for the batch path.
 */

#ifndef TPL_TRANSPIM_POLY_H
#define TPL_TRANSPIM_POLY_H

#include <cstring>
#include <memory>
#include <vector>

#include "common/bitops.h"
#include "common/instr_sink.h"
#include "softfloat/simd_lanes.h"
#include "softfloat/softfloat_core.h"
#include "softfloat/softfloat_lanes.h"
#include "transpim/ldexp.h"
#include "transpim/range.h"

namespace tpl {
namespace transpim {

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

    /** Sink-template body of eval() (batch path inlines it). */
    template <class S>
    float
    evalT(float x, S& sink) const
    {
        if (coeffs_.empty())
            return 0.0f;
        float acc = coeffs_.back();
        for (std::size_t i = coeffs_.size() - 1; i-- > 0;) {
            sink.charge(2); // coefficient load + loop control
            acc = sf::addT(sf::mulT(acc, x, sink), coeffs_[i], sink);
        }
        return acc;
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
 * e^x by the polynomial method: splitExpT's x = k*ln2 + r, the Taylor
 * polynomial @p poly at r, then pimLdexpT by k.
 */
struct PolyExp
{
    std::shared_ptr<const Polynomial> poly;

    /** The per-element body. */
    template <class S>
    float
    operator()(float x, S& sink) const
    {
        ExpSplit s = splitExpT(x, sink);
        float y = poly->evalT(s.r, sink);
        return pimLdexpT(y, s.k, sink);
    }

    /** operator() in every lane of @p x, into @p y, counted in @p t. */
    template <int Vectors>
    void
    lanes(const sf::VFloat (&x)[Vectors], sf::VFloat (&y)[Vectors],
          sf::LaneTally& t) const
    {
        sf::VInt k[Vectors];
        sf::VFloat r[Vectors];
        for (int b = 0; b < Vectors; ++b) {
            ExpSplitLanes s = splitExpLanes(x[b], t);
            k[b] = s.k;
            r[b] = s.r;
        }
        sf::hornerLanes(poly->coeffs(), r, y, t);
        for (int b = 0; b < Vectors; ++b)
            y[b] = ldexpLanes(y[b], k[b], t);
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

    /** The per-element body. */
    template <class S>
    float
    operator()(float x, S& sink) const
    {
        float ax = sf::absT(x, sink);
        float t = sf::divT(
            1.0f, sf::addT(1.0f, sf::mulT(kTailScale, ax, sink), sink),
            sink);
        // phi(x) = exp(-x^2/2) / sqrt(2*pi)
        float x2 = sf::mulT(x, x, sink);
        float e = exp(sf::negT(pimLdexpT(x2, -1, sink), sink), sink);
        float phi = sf::mulT(kInvSqrt2Pi, e, sink);
        float tl = sf::mulT(phi, tail->evalT(t, sink), sink);
        float cnd = sf::subT(1.0f, tl, sink);
        sink.charge(2);
        if (floatBits(x) >> 31)
            cnd = sf::subT(1.0f, cnd, sink);
        return cnd;
    }

    /**
     * operator() on the @p Vectors * simdLanes elements at @p in, one
     * per SIMD lane, into @p out, adding the block's charges and notes
     * to the fast-value sink @p sink once. Returns false, touching
     * neither @p out nor @p sink, when any lane leaves a fast path
     * (softfloat_lanes.h, ldexpLanes): the caller then runs the block
     * per element. @p in may alias @p out.
     */
    template <int Vectors, class S>
    bool
    block(const float* in, float* out, S& sink) const
    {
        using sf::VFloat;
        constexpr int lanes = sf::simdLanes;
        sf::LaneTally t;
        const VFloat one = sf::splatLanes(1.0f);
        VFloat x[Vectors], tv[Vectors], nh[Vectors], e[Vectors];
        VFloat p[Vectors], cnd[Vectors];
        for (int b = 0; b < Vectors; ++b) {
            std::memcpy(&x[b], in + b * lanes, sizeof(VFloat));
            VFloat ax = sf::absLanes(x[b], t);
            VFloat den = sf::addLanes(
                one, sf::mulLanes(sf::splatLanes(kTailScale), ax, t), t);
            tv[b] = sf::divLanes(one, den, t);
            VFloat x2 = sf::mulLanes(x[b], x[b], t);
            nh[b] = sf::negLanes(ldexpLanes(x2, sf::VInt{} - 1, t), t);
        }
        exp.lanes(nh, e, t);
        sf::hornerLanes(tail->coeffs(), tv, p, t);
        for (int b = 0; b < Vectors; ++b) {
            VFloat phi = sf::mulLanes(sf::splatLanes(kInvSqrt2Pi), e[b], t);
            VFloat c = sf::subLanes(one, sf::mulLanes(phi, p[b], t), t);
            t.charge(InstrClass::IntAlu, 2);
            // The sign fix-up, counted in the negative lanes only.
            const sf::VBits neg = reinterpret_cast<sf::VBits>(
                reinterpret_cast<sf::VInt>(x[b]) < 0);
            sf::LaneTally fix;
            VFloat flipped = sf::subLanes(one, c, fix);
            t.addWhere(neg, fix);
            cnd[b] = reinterpret_cast<VFloat>(
                sf::selectLanes(neg, reinterpret_cast<sf::VBits>(flipped),
                                reinterpret_cast<sf::VBits>(c)));
        }
        if (sf::anyLane(t.slow))
            return false;
        for (int b = 0; b < Vectors; ++b)
            std::memcpy(out + b * lanes, &cnd[b], sizeof(VFloat));
        t.addTo(sink);
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
