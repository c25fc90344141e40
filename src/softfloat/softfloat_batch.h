/**
 * @file
 * Batched softfloat entry points over contiguous spans.
 *
 * Each N-suffixed function is semantically n invocations of the
 * corresponding scalar operation: out[i] = op(a[i], b[i]) for every i,
 * with exactly the instruction charges and operation notes the n
 * scalar calls would have produced — flushed to the sink in bulk
 * (InstrSink::chargeClassN / noteN) instead of per element.
 *
 * Both ops take the SIMD lane path (simd_lanes.h): native vector
 * arithmetic with NaN-result lanes patched to the canonical quiet NaN,
 * bit-identical to the scalar cores. All spans must have equal
 * lengths (out may alias a or b); empty spans are no-ops that charge
 * nothing.
 */

#ifndef TPL_SOFTFLOAT_SOFTFLOAT_BATCH_H
#define TPL_SOFTFLOAT_SOFTFLOAT_BATCH_H

#include <cstdint>
#include <span>

#include "common/instr_sink.h"

namespace tpl {
namespace sf {

/** out[i] = add(a[i], b[i]). */
void addN(std::span<const float> a, std::span<const float> b,
          std::span<float> out, InstrSink* sink = nullptr);

/** out[i] = mul(a[i], b[i]) (data-dependent IntMulDiv charges kept). */
void mulN(std::span<const float> a, std::span<const float> b,
          std::span<float> out, InstrSink* sink = nullptr);

} // namespace sf
} // namespace tpl

#endif // TPL_SOFTFLOAT_SOFTFLOAT_BATCH_H
