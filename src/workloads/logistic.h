/**
 * @file
 * Logistic-regression inference workload (extension).
 *
 * The paper motivates sigmoid with logistic regression ("commonly used
 * in logistic regression to compute the probability of an output
 * event", Section 4.1.2); this workload runs the full model instead of
 * the bare activation: y = sigmoid(w . x + b) over a batch of feature
 * vectors. Unlike the element-wise Sigmoid workload, each output
 * requires D multiply-accumulates *plus* one transcendental, so the
 * transcendental's share of the kernel shrinks with the feature
 * dimension - the regime where method choice matters less and the
 * dot product dominates. The bench sweeps the feature dimension to
 * expose that crossover.
 *
 * PIM mapping: the weight vector is broadcast to every core (like a
 * LUT), feature rows are scattered, each tasklet computes rows'
 * dot products with emulated float MACs and applies the sigmoid
 * method; probabilities stream back.
 */

#ifndef TPL_WORKLOADS_LOGISTIC_H
#define TPL_WORKLOADS_LOGISTIC_H

#include <vector>

#include "workloads/common.h"

namespace tpl {
namespace work {

/** The rows of the logistic-regression table. */
inline constexpr Variant kLogisticRows[] = {
    Variant::CpuSingle, Variant::CpuMulti, Variant::PimPoly,
    Variant::PimLLut,   Variant::PimDlLut,
};

/** Extra configuration: the model's feature dimension. */
struct LogisticConfig : WorkloadConfig
{
    uint32_t features = 16;
};

/** Run one variant; elements = rows classified. */
WorkloadResult runLogistic(Variant variant, const LogisticConfig& cfg);

} // namespace work
} // namespace tpl

#endif // TPL_WORKLOADS_LOGISTIC_H
