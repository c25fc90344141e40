/**
 * @file
 * Ray-shading workload (extension; "ray tracing" is one of the
 * paper's motivating applications for transcendental functions).
 *
 * Shades a batch of camera rays against a unit sphere with a Phong
 * model. Per ray the kernel needs:
 *
 *  - rsqrt      to normalize the ray direction,
 *  - sqrt       for the intersection discriminant,
 *  - log2/exp2  for the specular power term
 *               (x^n = 2^(n * log2 x) - the classic pow composition),
 *
 * i.e. four hard-to-calculate functions per element, including the
 * base-2 pair whose range extension is nearly free in this library.
 * Variants: CPU baselines and PIM with polynomial vs L-LUT methods.
 */

#ifndef TPL_WORKLOADS_RAYTRACE_H
#define TPL_WORKLOADS_RAYTRACE_H

#include <vector>

#include "workloads/common.h"

namespace tpl {
namespace work {

/** The rows of the ray-shading table. */
inline constexpr Variant kRaytraceRows[] = {
    Variant::CpuSingle, Variant::CpuMulti, Variant::PimPoly,
    Variant::PimLLut,
};

/** Run one variant; elements = rays shaded. */
WorkloadResult runRaytrace(Variant variant, const WorkloadConfig& cfg);

} // namespace work
} // namespace tpl

#endif // TPL_WORKLOADS_RAYTRACE_H
