/**
 * @file
 * Polynomial baseline implementation.
 */

#include "transpim/poly.h"

#include <cmath>

#include "softfloat/softfloat.h"

namespace tpl {
namespace transpim {

float
Polynomial::eval(float x, InstrSink* sink) const
{
    SinkRef s(sink);
    return evalT(x, s);
}

Polynomial
sinTaylor(uint32_t degree)
{
    std::vector<float> c(degree + 1, 0.0f);
    double fact = 1.0;
    for (uint32_t k = 1; k <= degree; ++k) {
        fact *= k;
        if (k % 2 == 1)
            c[k] = static_cast<float>(((k / 2) % 2 == 0 ? 1.0 : -1.0) /
                                      fact);
    }
    return Polynomial(std::move(c));
}

Polynomial
cosTaylor(uint32_t degree)
{
    std::vector<float> c(degree + 1, 0.0f);
    c[0] = 1.0f;
    double fact = 1.0;
    for (uint32_t k = 1; k <= degree; ++k) {
        fact *= k;
        if (k % 2 == 0)
            c[k] = static_cast<float>(((k / 2) % 2 == 0 ? 1.0 : -1.0) /
                                      fact);
    }
    return Polynomial(std::move(c));
}

Polynomial
expTaylor(uint32_t degree)
{
    std::vector<float> c(degree + 1);
    double fact = 1.0;
    c[0] = 1.0f;
    for (uint32_t k = 1; k <= degree; ++k) {
        fact *= k;
        c[k] = static_cast<float>(1.0 / fact);
    }
    return Polynomial(std::move(c));
}

Polynomial
log1pTaylor(uint32_t degree)
{
    std::vector<float> c(degree + 1, 0.0f);
    for (uint32_t k = 1; k <= degree; ++k)
        c[k] = static_cast<float>((k % 2 == 1 ? 1.0 : -1.0) / k);
    return Polynomial(std::move(c));
}

Polynomial
sqrt1pSeries(uint32_t degree)
{
    // sqrt(1+u) = sum binom(1/2, k) u^k.
    std::vector<float> c(degree + 1);
    double coeff = 1.0;
    c[0] = 1.0f;
    for (uint32_t k = 1; k <= degree; ++k) {
        coeff *= (0.5 - (k - 1)) / k;
        c[k] = static_cast<float>(coeff);
    }
    return Polynomial(std::move(c));
}

Polynomial
rsqrt1pSeries(uint32_t degree)
{
    // 1/sqrt(1+u) = sum binom(-1/2, k) u^k.
    std::vector<float> c(degree + 1);
    double coeff = 1.0;
    c[0] = 1.0f;
    for (uint32_t k = 1; k <= degree; ++k) {
        coeff *= (-0.5 - (k - 1)) / k;
        c[k] = static_cast<float>(coeff);
    }
    return Polynomial(std::move(c));
}

Polynomial
atanTaylor(uint32_t degree)
{
    // atan(u) = u - u^3/3 + u^5/5 - ... ; callers must reduce the
    // argument to |u| <= tan(pi/8) for fast convergence.
    std::vector<float> c(degree + 1, 0.0f);
    for (uint32_t k = 1; k <= degree; k += 2) {
        c[k] = static_cast<float>(((k / 2) % 2 == 0 ? 1.0 : -1.0) / k);
    }
    return Polynomial(std::move(c));
}

Polynomial
cndfTail()
{
    return Polynomial({0.0f, 0.319381530f, -0.356563782f, 1.781477937f,
                       -1.821255978f, 1.330274429f});
}

} // namespace transpim
} // namespace tpl
