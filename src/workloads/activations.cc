/**
 * @file
 * Sigmoid / Softmax implementations.
 *
 * Both workloads compose TransPimLib's exp - the paper's Table 2
 * provides exponentiation, and the applications build sigmoid/softmax
 * on top of it, which is why their PIM cost is dominated by the exp
 * method plus one float add/divide (sigmoid) or multiply (softmax).
 */

#include "workloads/activations.h"

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

/** Inputs of an activation workload, uniform in the configured range. */
std::vector<float>
generateInputs(uint64_t n, const WorkloadConfig& cfg)
{
    return uniformFloats(n, cfg.inputLo, cfg.inputHi, cfg.seed);
}

double
sigmoidReference(float x)
{
    return 1.0 / (1.0 + std::exp(-(double)x));
}

// ---------------------------------------------------------------- CPU

WorkloadResult
cpuSigmoid(Variant v, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto input = generateInputs(sample, cfg);
    std::vector<float> out(sample);
    return cpuRow(
        "Sigmoid", v, cfg,
        [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i)
                out[i] = 1.0f / (1.0f + std::exp(-input[i]));
        },
        [&](ErrorAccumulator& acc) {
            for (uint64_t i = 0; i < std::min<uint64_t>(sample, 10000);
                 ++i)
                acc.add(out[i], sigmoidReference(input[i]));
        });
}

WorkloadResult
cpuSoftmax(Variant v, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto input = generateInputs(sample, cfg);
    std::vector<float> out(sample);
    return cpuRow(
        "Softmax", v, cfg,
        [&](uint64_t beg, uint64_t end) {
            float local = 0.0f;
            for (uint64_t i = beg; i < end; ++i) {
                out[i] = std::exp(input[i]);
                local += out[i];
            }
            // The final scale pass reuses the exp results.
            float inv = 1.0f / local; // per-chunk normalization proxy
            for (uint64_t i = beg; i < end; ++i)
                out[i] *= inv;
        },
        [&](ErrorAccumulator& acc) {
            // Exact softmax over a small window.
            size_t w = std::min<uint64_t>(sample, 10000);
            double sum = 0.0;
            for (size_t i = 0; i < w; ++i)
                sum += std::exp((double)input[i]);
            double chunkSum = 0.0;
            for (size_t i = 0; i < w; ++i)
                chunkSum += std::exp(input[i]);
            for (size_t i = 0; i < w; ++i)
                acc.add(std::exp(input[i]) / chunkSum,
                        std::exp((double)input[i]) / sum);
        });
}

// ---------------------------------------------------------------- PIM

WorkloadResult
pimSigmoid(Variant v, const WorkloadConfig& cfg)
{
    std::vector<FunctionEvaluator> evals =
        makeEvaluators(v, cfg, {Function::Exp});
    const FunctionEvaluator& expE = evals[0];
    PimRun run("Sigmoid", v, cfg, evals);
    auto input = generateInputs(run.simulatedElements(), cfg);
    Array in = run.stream(1, input);
    Array out = run.stream(1);

    run.pass({.chunk = 256,
              .reads = {in},
              .writes = {out},
              .element = [&](Tasklet& t, uint32_t i) {
                  t.ctx.charge(4);
                  float e = expE.eval(sf::neg(t.in[0][i], &t.ctx), &t.ctx);
                  t.out[0][i] =
                      sf::div(1.0f, sf::add(1.0f, e, &t.ctx), &t.ctx);
              }});

    ErrorAccumulator acc;
    std::vector<float> y = run.read(out, 0);
    for (uint32_t i = 0; i < run.perDpu(); ++i)
        acc.add(y[i], sigmoidReference(input[i]));
    uint64_t bytes = cfg.totalElements * sizeof(float);
    return run.row({bytes}, {bytes}, acc);
}

WorkloadResult
pimSoftmax(Variant v, const WorkloadConfig& cfg)
{
    std::vector<FunctionEvaluator> evals =
        makeEvaluators(v, cfg, {Function::Exp});
    const FunctionEvaluator& expE = evals[0];
    PimRun run("Softmax", v, cfg, evals);
    auto input = generateInputs(run.simulatedElements(), cfg);
    Array in = run.stream(1, input);
    Array exps = run.stream(1);
    Array partials = run.fixed(cfg.tasklets); // one slot per tasklet
    Array inv = run.fixed(1);

    // Optional pass 0 (stable softmax): global max through the host,
    // so the exponentials cannot overflow for wide input ranges. The
    // host reads every tasklet's maximum back and broadcasts the
    // global one, which pass 1 reads from MRAM as pass 2 reads 1/sum.
    std::optional<Array> maxSlot;
    if (cfg.stableSoftmax) {
        run.pass({.chunk = 256,
                  .reads = {in},
                  .acc = -3.4e38f,
                  .accOut = partials,
                  .element = [](Tasklet& t, uint32_t i) {
                      t.ctx.charge(2);
                      if (sf::lt(t.acc, t.in[0][i], &t.ctx))
                          t.acc = t.in[0][i];
                  }});
        float globalMax = -3.4e38f;
        for (uint32_t d = 0; d < run.numDpus(); ++d)
            for (float m : run.read(partials, d))
                globalMax = std::max(globalMax, m);
        maxSlot = run.fixed(1, {&globalMax, 1});
    }

    // Pass 1: e^(x - max) and per-tasklet partial sums.
    run.pass({.chunk = 256,
              .reads = {in},
              .writes = {exps},
              .local = maxSlot,
              .accOut = partials,
              .element = [&](Tasklet& t, uint32_t i) {
                  t.ctx.charge(4);
                  float x = t.in[0][i];
                  if (maxSlot)
                      x = sf::sub(x, t.local[0], &t.ctx);
                  t.out[0][i] = expE.eval(x, &t.ctx);
                  t.acc = sf::add(t.acc, t.out[0][i], &t.ctx);
              }});

    // Host-side reduction across tasklets and DPUs (the inter-PIM-core
    // communication path of Figure 2), then broadcast 1/sum.
    double simSum = 0.0;
    for (uint32_t d = 0; d < run.numDpus(); ++d)
        for (float p : run.read(partials, d))
            simSum += p;
    float invSimSum = static_cast<float>(1.0 / simSum);
    run.broadcast(inv, {&invSimSum, 1});

    // Pass 2: scale by the broadcast 1/sum (one multiply/element).
    run.pass({.chunk = 256,
              .reads = {exps},
              .writes = {exps},
              .local = inv,
              .element = [](Tasklet& t, uint32_t i) {
                  t.ctx.charge(4);
                  t.out[0][i] = sf::mul(t.in[0][i], t.local[0], &t.ctx);
              }});

    // Accuracy over the simulated subset (its own softmax problem).
    double refSum = 0.0;
    for (float x : input)
        refSum += std::exp((double)x);
    ErrorAccumulator acc;
    std::vector<float> y = run.read(exps, 0);
    for (uint32_t i = 0; i < run.perDpu(); ++i)
        acc.add(y[i], std::exp((double)input[i]) / refSum);
    // Every pass scales with elements/DPU; the reduction adds tiny
    // transfers (partial sums out, 1/sum back), and the stable form
    // the same again for the max (tasklet maxima out, max back).
    const uint64_t bytes = cfg.totalElements * sizeof(float);
    const uint64_t toDpus = cfg.systemDpus * sizeof(float);
    const uint64_t fromTasklets =
        uint64_t{cfg.systemDpus} * cfg.tasklets * sizeof(float);
    return run.row({bytes, toDpus, maxSlot ? toDpus : 0},
                   {bytes, fromTasklets, maxSlot ? fromTasklets : 0},
                   acc);
}

} // namespace

WorkloadResult
runSigmoid(Variant variant, const WorkloadConfig& cfg)
{
    return isCpu(variant) ? cpuSigmoid(variant, cfg)
                          : pimSigmoid(variant, cfg);
}

WorkloadResult
runSoftmax(Variant variant, const WorkloadConfig& cfg)
{
    return isCpu(variant) ? cpuSoftmax(variant, cfg)
                          : pimSoftmax(variant, cfg);
}

} // namespace work
} // namespace tpl
