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
 *
 * The values of whole vectors come from the vector lane's ops
 * (softfloat_lanes.h), which patch NaN results to the canonical quiet
 * NaN as the scalar cores return it; its counts are not used, since
 * the charges above are exact for every operand, specials included.
 */

#include "softfloat/softfloat_batch.h"

#include <cassert>

#include "softfloat/softfloat_core.h"
#include "softfloat/softfloat_lanes.h"

namespace tpl {
namespace sf {

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
    for (VecLane<simdLanes> lane; i + simdLanes <= n; i += simdLanes)
        lane.store(&out[i], lane.add(lane.load(&a[i]), lane.load(&b[i])));
    NullSink none;
    for (; i < n; ++i)
        out[i] = addT(a[i], b[i], none);
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
    for (VecLane<simdLanes> lane; i + simdLanes <= n; i += simdLanes)
        lane.store(&out[i], lane.mul(lane.load(&a[i]), lane.load(&b[i])));
    NullSink none;
    for (; i < n; ++i)
        out[i] = mulT(a[i], b[i], none);
}

} // namespace sf
} // namespace tpl
