/**
 * @file
 * Batched softfloat entry points.
 *
 * Charge discipline: every N-entry point produces exactly the charges
 * of n scalar calls. Operations with constant per-element cost charge
 * once in bulk (chargeClassN); the multiply's data-dependent IntMulDiv
 * part is recomputed per element by the same rule the scalar core uses
 * (emuMul32T's non-zero-byte row count on the non-special path) and
 * flushed as one 64-bit total. Charges are computed *before* results
 * are stored so `out` may alias an input span.
 */

#include "softfloat/softfloat_batch.h"

#include <cassert>
#include <cstring>

#include "softfloat/softfloat64.h"
#include "softfloat/softfloat_core.h"

namespace tpl {
namespace sf {

namespace {

VFloat
loadV(const float* p)
{
    VFloat v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
storeV(float* p, VFloat v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * Replace NaN lanes with the canonical quiet NaN (0x7fc00000): the
 * single place host IEEE results and the softfloat cores differ.
 */
VFloat
patchNan(VFloat v)
{
    for (int l = 0; l < simdLanes; ++l) {
        if (v[l] != v[l])
            v[l] = bitsToFloat(ieeeQuietNan);
    }
    return v;
}

} // namespace

void
addN(std::span<const float> a, std::span<const float> b,
     std::span<float> out, InstrSink* sink)
{
    size_t n = a.size();
    assert(b.size() == n && out.size() == n);
    if (sink && n > 0) {
        sink->chargeClassN(InstrClass::SoftFloat, core::addCharge, n);
        sink->noteN(OpClass::FloatAdd, n);
    }
    size_t i = 0;
    for (; i + simdLanes <= n; i += simdLanes)
        storeV(&out[i], patchNan(loadV(&a[i]) + loadV(&b[i])));
    NullSink none;
    for (; i < n; ++i)
        out[i] = addT(a[i], b[i], none);
}

void
subN(std::span<const float> a, std::span<const float> b,
     std::span<float> out, InstrSink* sink)
{
    size_t n = a.size();
    assert(b.size() == n && out.size() == n);
    if (sink && n > 0) {
        // sub = 1 (sign flip) + the add core's constant charge.
        sink->chargeClassN(InstrClass::SoftFloat, core::addCharge + 1, n);
        sink->noteN(OpClass::FloatAdd, n);
    }
    size_t i = 0;
    for (; i + simdLanes <= n; i += simdLanes)
        storeV(&out[i], patchNan(loadV(&a[i]) - loadV(&b[i])));
    NullSink none;
    for (; i < n; ++i)
        out[i] = subT(a[i], b[i], none);
}

void
mulN(std::span<const float> a, std::span<const float> b,
     std::span<float> out, InstrSink* sink)
{
    size_t n = a.size();
    assert(b.size() == n && out.size() == n);
    if (sink && n > 0) {
        uint64_t intCharge = 0;
        for (size_t j = 0; j < n; ++j)
            intCharge +=
                core::mulIntCharge(floatBits(a[j]), floatBits(b[j]));
        sink->chargeClassN(InstrClass::SoftFloat, core::mulCharge, n);
        if (intCharge > 0)
            sink->chargeClassN(InstrClass::IntMulDiv, 1, intCharge);
        sink->noteN(OpClass::FloatMul, n);
    }
    size_t i = 0;
    for (; i + simdLanes <= n; i += simdLanes)
        storeV(&out[i], patchNan(loadV(&a[i]) * loadV(&b[i])));
    NullSink none;
    for (; i < n; ++i)
        out[i] = mulT(a[i], b[i], none);
}

void
divN(std::span<const float> a, std::span<const float> b,
     std::span<float> out, InstrSink* sink)
{
    size_t n = a.size();
    assert(b.size() == n && out.size() == n);
    if (sink && n > 0) {
        sink->chargeClassN(InstrClass::SoftFloat, core::divCharge, n);
        sink->noteN(OpClass::FloatDiv, n);
    }
    size_t i = 0;
    for (; i + simdLanes <= n; i += simdLanes)
        storeV(&out[i], patchNan(loadV(&a[i]) / loadV(&b[i])));
    NullSink none;
    for (; i < n; ++i)
        out[i] = divT(a[i], b[i], none);
}

void
sqrtN(std::span<const float> a, std::span<float> out, InstrSink* sink)
{
    size_t n = a.size();
    assert(out.size() == n);
    if (sink && n > 0) {
        sink->chargeClassN(InstrClass::SoftFloat, core::sqrtCharge, n);
        sink->noteN(OpClass::FloatSqrt, n);
    }
    NullSink none;
    for (size_t i = 0; i < n; ++i)
        out[i] = sqrtT(a[i], none);
}

void
toI32TruncN(std::span<const float> a, std::span<int32_t> out,
            InstrSink* sink)
{
    size_t n = a.size();
    assert(out.size() == n);
    if (sink && n > 0) {
        sink->chargeClassN(InstrClass::SoftFloat, core::convertCost, n);
        sink->noteN(OpClass::FloatConv, n);
    }
    NullSink none;
    for (size_t i = 0; i < n; ++i)
        out[i] = toI32TruncT(a[i], none);
}

void
toI32FloorN(std::span<const float> a, std::span<int32_t> out,
            InstrSink* sink)
{
    size_t n = a.size();
    assert(out.size() == n);
    if (sink && n > 0) {
        sink->chargeClassN(InstrClass::SoftFloat, core::convertCost + 4,
                           n);
        sink->noteN(OpClass::FloatConv, n);
    }
    NullSink none;
    for (size_t i = 0; i < n; ++i)
        out[i] = toI32FloorT(a[i], none);
}

void
toI32RoundN(std::span<const float> a, std::span<int32_t> out,
            InstrSink* sink)
{
    size_t n = a.size();
    assert(out.size() == n);
    if (sink && n > 0) {
        sink->chargeClassN(InstrClass::SoftFloat, core::convertCost + 4,
                           n);
        sink->noteN(OpClass::FloatConv, n);
    }
    NullSink none;
    for (size_t i = 0; i < n; ++i)
        out[i] = toI32RoundT(a[i], none);
}

void
fromI32N(std::span<const int32_t> a, std::span<float> out,
         InstrSink* sink)
{
    size_t n = a.size();
    assert(out.size() == n);
    if (sink && n > 0) {
        sink->chargeClassN(InstrClass::SoftFloat, core::convertCost, n);
        sink->noteN(OpClass::FloatConv, n);
    }
    NullSink none;
    for (size_t i = 0; i < n; ++i)
        out[i] = fromI32T(a[i], none);
}

namespace {

/** Loop a binary16/64 scalar op with charges tallied, flushed once. */
template <class T, class Fn>
void
tallyLoop2(std::span<const T> a, std::span<const T> b, std::span<T> out,
           InstrSink* sink, Fn&& fn)
{
    assert(b.size() == a.size() && out.size() == a.size());
    BatchTally tally;
    TallySink ts(tally);
    InstrSink* charged = sink ? static_cast<InstrSink*>(&ts) : nullptr;
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = fn(a[i], b[i], charged);
    tally.flushTo(sink);
}

template <class In, class Out, class Fn>
void
tallyLoop1(std::span<const In> a, std::span<Out> out, InstrSink* sink,
           Fn&& fn)
{
    assert(out.size() == a.size());
    BatchTally tally;
    TallySink ts(tally);
    InstrSink* charged = sink ? static_cast<InstrSink*>(&ts) : nullptr;
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = fn(a[i], charged);
    tally.flushTo(sink);
}

} // namespace

void
add16N(std::span<const Half> a, std::span<const Half> b,
       std::span<Half> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink,
               [](Half x, Half y, InstrSink* s) { return add16(x, y, s); });
}

void
sub16N(std::span<const Half> a, std::span<const Half> b,
       std::span<Half> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink,
               [](Half x, Half y, InstrSink* s) { return sub16(x, y, s); });
}

void
mul16N(std::span<const Half> a, std::span<const Half> b,
       std::span<Half> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink,
               [](Half x, Half y, InstrSink* s) { return mul16(x, y, s); });
}

void
div16N(std::span<const Half> a, std::span<const Half> b,
       std::span<Half> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink,
               [](Half x, Half y, InstrSink* s) { return div16(x, y, s); });
}

void
toF16N(std::span<const float> a, std::span<Half> out, InstrSink* sink)
{
    tallyLoop1(a, out, sink,
               [](float x, InstrSink* s) { return toF16(x, s); });
}

void
fromF16N(std::span<const Half> a, std::span<float> out, InstrSink* sink)
{
    tallyLoop1(a, out, sink,
               [](Half x, InstrSink* s) { return fromF16(x, s); });
}

void
add64N(std::span<const double> a, std::span<const double> b,
       std::span<double> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink, [](double x, double y, InstrSink* s) {
        return add64(x, y, s);
    });
}

void
sub64N(std::span<const double> a, std::span<const double> b,
       std::span<double> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink, [](double x, double y, InstrSink* s) {
        return sub64(x, y, s);
    });
}

void
mul64N(std::span<const double> a, std::span<const double> b,
       std::span<double> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink, [](double x, double y, InstrSink* s) {
        return mul64(x, y, s);
    });
}

void
div64N(std::span<const double> a, std::span<const double> b,
       std::span<double> out, InstrSink* sink)
{
    tallyLoop2(a, b, out, sink, [](double x, double y, InstrSink* s) {
        return div64(x, y, s);
    });
}

void
fromF32N(std::span<const float> a, std::span<double> out,
         InstrSink* sink)
{
    tallyLoop1(a, out, sink,
               [](float x, InstrSink* s) { return fromF32(x, s); });
}

void
toF32N(std::span<const double> a, std::span<float> out, InstrSink* sink)
{
    tallyLoop1(a, out, sink,
               [](double x, InstrSink* s) { return toF32(x, s); });
}

} // namespace sf
} // namespace tpl
