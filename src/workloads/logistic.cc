/**
 * @file
 * Logistic-regression inference implementation.
 */

#include "workloads/logistic.h"

#include <algorithm>
#include <cmath>

#include "common/error_metrics.h"
#include "common/rng.h"
#include "softfloat/softfloat.h"
#include "transpim/evaluator.h"

namespace tpl {
namespace work {

using transpim::Function;
using transpim::FunctionEvaluator;

namespace {

/** Deterministic model weights in [-1, 1] plus bias. */
std::vector<float>
generateWeights(uint32_t features, uint64_t seed)
{
    SplitMix64 rng(seed ^ 0xfeedULL);
    std::vector<float> w(features + 1); // [features] = bias
    for (auto& v : w)
        v = rng.nextFloat(-1.0f, 1.0f);
    return w;
}

/** Feature rows, scaled so logits mostly land in [-8, 8]. */
std::vector<float>
generateRows(uint64_t rows, uint32_t features, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<float> x(rows * features);
    float scale = 4.0f / std::sqrt(static_cast<float>(features));
    for (auto& v : x)
        v = rng.nextFloat(-scale, scale);
    return x;
}

double
referenceProbability(const float* row, const std::vector<float>& w,
                     uint32_t features)
{
    double acc = w[features];
    for (uint32_t j = 0; j < features; ++j)
        acc += static_cast<double>(row[j]) * w[j];
    return 1.0 / (1.0 + std::exp(-acc));
}

WorkloadResult
runCpu(Variant v, const LogisticConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto w = generateWeights(cfg.features, cfg.seed);
    auto x = generateRows(sample, cfg.features, cfg.seed);
    std::vector<float> out(sample);
    return cpuRow(
        "Logistic", v, cfg,
        [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i) {
                float acc = w[cfg.features];
                const float* row = &x[i * cfg.features];
                for (uint32_t j = 0; j < cfg.features; ++j)
                    acc += row[j] * w[j];
                out[i] = 1.0f / (1.0f + std::exp(-acc));
            }
        },
        [&](ErrorAccumulator& acc) {
            for (uint64_t i = 0; i < std::min<uint64_t>(sample, 5000);
                 ++i)
                acc.add(out[i], referenceProbability(
                                    &x[i * cfg.features], w, cfg.features));
        });
}

WorkloadResult
runPim(Variant v, const LogisticConfig& cfg)
{
    std::vector<FunctionEvaluator> evals =
        makeEvaluators(v, cfg, {Function::Sigmoid});
    const FunctionEvaluator& sigE = evals[0];
    PimRun run("Logistic", v, cfg, evals);
    const uint32_t features = cfg.features;
    auto w = generateWeights(features, cfg.seed);
    auto x = generateRows(run.simulatedElements(), features, cfg.seed);
    Array weights = run.fixed(features + 1, w);
    Array rows = run.stream(features, x);
    Array out = run.stream(1);

    // Weights are pulled into the scratchpad once per tasklet; each
    // row is read just before its dot product, and the output is
    // buffered per 64-row chunk to batch the write-back.
    run.pass({.chunk = 64,
              .reads = {rows},
              .readPerElement = true,
              .writes = {out},
              .local = weights,
              .element = [&](Tasklet& t, uint32_t i) {
                  const float* row = &t.in[0][i * features];
                  float acc = t.local[features]; // bias
                  t.ctx.charge(2);
                  for (uint32_t j = 0; j < features; ++j) {
                      t.ctx.charge(3); // loop + two WRAM loads
                      acc = sf::add(acc,
                                    sf::mul(row[j], t.local[j], &t.ctx),
                                    &t.ctx);
                  }
                  t.out[0][i] = sigE.eval(acc, &t.ctx);
              }});

    ErrorAccumulator acc;
    std::vector<float> y = run.read(out, 0);
    for (uint32_t i = 0; i < run.perDpu(); ++i)
        acc.add(y[i], referenceProbability(&x[i * features], w, features));
    return run.row({cfg.totalElements * features * sizeof(float) +
                    uint64_t{cfg.systemDpus} * (features + 1) *
                        sizeof(float)},
                   {cfg.totalElements * sizeof(float)}, acc);
}

} // namespace

WorkloadResult
runLogistic(Variant variant, const LogisticConfig& cfg)
{
    return isCpu(variant) ? runCpu(variant, cfg) : runPim(variant, cfg);
}

} // namespace work
} // namespace tpl
