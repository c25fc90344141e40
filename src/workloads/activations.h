/**
 * @file
 * Sigmoid and Softmax workloads (paper Section 4.1.2).
 *
 * Sigmoid is element-wise: S(x) = 1 / (1 + e^-x) over a 30M-element
 * vector. Softmax normalizes the exponentials over the whole vector,
 * which on a PIM system requires inter-core communication through the
 * host (the per-DPU partial sums are reduced on the CPU and broadcast
 * back), exactly the structure the paper's Figure 2 mandates.
 *
 * Variants: CPU 1T / 32T (libm, measured), PIM poly (polynomial
 * baseline), PIM M-LUT / L-LUT (interpolated fuzzy LUTs).
 */

#ifndef TPL_WORKLOADS_ACTIVATIONS_H
#define TPL_WORKLOADS_ACTIVATIONS_H

#include <vector>

#include "workloads/common.h"

namespace tpl {
namespace work {

/** The rows of the Sigmoid and Softmax groups of Figure 9. */
inline constexpr Variant kActivationRows[] = {
    Variant::CpuSingle, Variant::CpuMulti, Variant::PimPoly,
    Variant::PimMLut,   Variant::PimLLut,
};

/** Run the Sigmoid workload in one variant. */
WorkloadResult runSigmoid(Variant variant, const WorkloadConfig& cfg);

/** Run the Softmax workload in one variant. */
WorkloadResult runSoftmax(Variant variant, const WorkloadConfig& cfg);

} // namespace work
} // namespace tpl

#endif // TPL_WORKLOADS_ACTIVATIONS_H
