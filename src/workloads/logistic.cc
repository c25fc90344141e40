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
using transpim::Method;
using transpim::MethodSpec;
using transpim::Placement;

namespace {

std::string
variantLabel(LogisticVariant v)
{
    switch (v) {
      case LogisticVariant::CpuSingle: return "CPU 1T";
      case LogisticVariant::CpuMulti: return "CPU 32T";
      case LogisticVariant::PimPoly: return "PIM poly";
      case LogisticVariant::PimLLut: return "PIM L-LUT interp.";
      case LogisticVariant::PimDlLut: return "PIM DL-LUT interp.";
    }
    return "?";
}

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

std::shared_ptr<FunctionEvaluator>
makeSigmoid(LogisticVariant v, const LogisticConfig& cfg)
{
    MethodSpec spec;
    spec.interpolated = true;
    spec.placement = Placement::Wram;
    spec.log2Entries = cfg.log2Entries;
    spec.polyDegree = cfg.polyDegree;
    switch (v) {
      case LogisticVariant::PimPoly: spec.method = Method::Poly; break;
      case LogisticVariant::PimDlLut: spec.method = Method::DlLut; break;
      default: spec.method = Method::LLut; break;
    }
    return std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Sigmoid, spec));
}

WorkloadResult
runCpu(LogisticVariant v, const LogisticConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto w = generateWeights(cfg.features, cfg.seed);
    auto x = generateRows(sample, cfg.features, cfg.seed);
    std::vector<float> out(sample);

    uint32_t threads =
        v == LogisticVariant::CpuSingle ? 1 : cfg.cpuThreads;
    WorkloadResult res;
    res.workload = "Logistic";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;
    res.seconds = timeCpuBaseline(
        cfg, threads, [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i) {
                float acc = w[cfg.features];
                const float* row = &x[i * cfg.features];
                for (uint32_t j = 0; j < cfg.features; ++j)
                    acc += row[j] * w[j];
                out[i] = 1.0f / (1.0f + std::exp(-acc));
            }
        });

    ErrorAccumulator acc;
    for (uint64_t i = 0; i < std::min<uint64_t>(sample, 5000); ++i) {
        acc.add(out[i], referenceProbability(&x[i * cfg.features], w,
                                             cfg.features));
    }
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

WorkloadResult
runPim(LogisticVariant v, const LogisticConfig& cfg)
{
    auto sigE = makeSigmoid(v, cfg);

    WorkloadResult res;
    res.workload = "Logistic";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;
    res.setupSeconds = sigE->setupSeconds();

    sim::PimSystem sys(cfg.simulatedDpus);
    uint32_t perDpu = cfg.elementsPerSimDpu;
    uint32_t features = cfg.features;
    uint64_t simRows = static_cast<uint64_t>(perDpu) * sys.numDpus();
    auto w = generateWeights(features, cfg.seed);
    auto x = generateRows(simRows, features, cfg.seed);

    uint32_t wAddr = 0, xAddr = 0, outAddr = 0;
    uint32_t rowBytes = features * sizeof(float);
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        sim::DpuCore& dpu = sys.dpu(d);
        sigE->attach(dpu);
        wAddr = dpu.mramAlloc((features + 1) * sizeof(float));
        xAddr = dpu.mramAlloc(perDpu * rowBytes);
        outAddr = dpu.mramAlloc(perDpu * sizeof(float));
        dpu.hostWriteMram(wAddr, w.data(),
                          (features + 1) * sizeof(float));
        dpu.hostWriteMram(
            xAddr,
            x.data() + static_cast<uint64_t>(d) * perDpu * features,
            perDpu * rowBytes);
    }

    sys.launchAll(cfg.tasklets, [&](sim::TaskletContext& ctx) {
        // Weights are pulled into the scratchpad once per tasklet.
        std::vector<float> wl(features + 1);
        ctx.mramRead(wAddr, wl.data(), (features + 1) * sizeof(float));
        std::vector<float> row(features);
        // Output is buffered per 64-row block to batch the write-back.
        constexpr uint32_t block = 64;
        float out[block];
        uint32_t blocks = (perDpu + block - 1) / block;
        for (uint32_t b = ctx.taskletId(); b < blocks;
             b += ctx.numTasklets()) {
            uint32_t beg = b * block;
            uint32_t cnt = std::min(block, perDpu - beg);
            for (uint32_t i = 0; i < cnt; ++i) {
                ctx.mramRead(xAddr + (beg + i) * rowBytes, row.data(),
                             rowBytes);
                float acc = wl[features]; // bias
                ctx.charge(2);
                for (uint32_t j = 0; j < features; ++j) {
                    ctx.charge(3); // loop + two WRAM loads
                    acc = sf::add(acc, sf::mul(row[j], wl[j], &ctx),
                                  &ctx);
                }
                out[i] = sigE->eval(acc, &ctx);
            }
            ctx.mramWrite(outAddr + beg * sizeof(float), out,
                          cnt * sizeof(float));
        }
    });

    res.pimKernelSeconds =
        projectPimSeconds(cfg, sys.model(), sys.lastMaxCycles());
    const sim::CostModel& model = sys.model();
    const uint32_t ranks = model.ranksEngaged(cfg.systemDpus);
    res.hostToPimSeconds = model.parallelTransferSeconds(
        cfg.totalElements * rowBytes +
            static_cast<uint64_t>(cfg.systemDpus) * (features + 1) *
                sizeof(float),
        ranks);
    res.pimToHostSeconds = model.parallelTransferSeconds(
        cfg.totalElements * sizeof(float), ranks);
    res.seconds = res.pimKernelSeconds + res.hostToPimSeconds +
                  res.pimToHostSeconds + res.setupSeconds;

    ErrorAccumulator acc;
    std::vector<float> out(perDpu);
    sys.dpu(0).hostReadMram(outAddr, out.data(),
                            perDpu * sizeof(float));
    for (uint32_t i = 0; i < perDpu; ++i) {
        acc.add(out[i], referenceProbability(&x[i * features], w,
                                             features));
    }
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

} // namespace

WorkloadResult
runLogistic(LogisticVariant variant, const LogisticConfig& cfg)
{
    if (variant == LogisticVariant::CpuSingle ||
        variant == LogisticVariant::CpuMulti) {
        return runCpu(variant, cfg);
    }
    return runPim(variant, cfg);
}

std::vector<WorkloadResult>
runLogisticAll(const LogisticConfig& cfg)
{
    std::vector<WorkloadResult> rows;
    for (LogisticVariant v :
         {LogisticVariant::CpuSingle, LogisticVariant::CpuMulti,
          LogisticVariant::PimPoly, LogisticVariant::PimLLut,
          LogisticVariant::PimDlLut}) {
        rows.push_back(runLogistic(v, cfg));
    }
    return rows;
}

} // namespace work
} // namespace tpl
