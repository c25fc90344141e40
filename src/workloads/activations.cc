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
#include <numeric>

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
variantLabel(ActVariant v)
{
    switch (v) {
      case ActVariant::CpuSingle: return "CPU 1T";
      case ActVariant::CpuMulti: return "CPU 32T";
      case ActVariant::PimPoly: return "PIM poly";
      case ActVariant::PimMLut: return "PIM M-LUT interp.";
      case ActVariant::PimLLut: return "PIM L-LUT interp.";
    }
    return "?";
}

std::shared_ptr<FunctionEvaluator>
makeExp(ActVariant v, const WorkloadConfig& cfg)
{
    MethodSpec spec;
    spec.interpolated = true;
    spec.placement = Placement::Wram;
    spec.log2Entries = cfg.log2Entries;
    spec.polyDegree = cfg.polyDegree;
    switch (v) {
      case ActVariant::PimPoly: spec.method = Method::Poly; break;
      case ActVariant::PimMLut: spec.method = Method::MLut; break;
      default: spec.method = Method::LLut; break;
    }
    return std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Exp, spec));
}

// ---------------------------------------------------------------- CPU

WorkloadResult
cpuSigmoid(ActVariant v, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto input = uniformFloats(sample, cfg.inputLo, cfg.inputHi, cfg.seed);
    std::vector<float> out(sample);

    uint32_t threads =
        v == ActVariant::CpuSingle ? 1 : cfg.cpuThreads;
    WorkloadResult res;
    res.workload = "Sigmoid";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;
    res.seconds = timeCpuBaseline(
        cfg, threads, [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i)
                out[i] = 1.0f / (1.0f + std::exp(-input[i]));
        });

    ErrorAccumulator acc;
    for (uint64_t i = 0; i < std::min<uint64_t>(sample, 10000); ++i)
        acc.add(out[i], 1.0 / (1.0 + std::exp(-(double)input[i])));
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

WorkloadResult
cpuSoftmax(ActVariant v, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto input = uniformFloats(sample, cfg.inputLo, cfg.inputHi, cfg.seed);
    std::vector<float> out(sample);

    uint32_t threads =
        v == ActVariant::CpuSingle ? 1 : cfg.cpuThreads;
    WorkloadResult res;
    res.workload = "Softmax";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;

    res.seconds = timeCpuBaseline(
        cfg, threads, [&](uint64_t beg, uint64_t end) {
            float local = 0.0f;
            for (uint64_t i = beg; i < end; ++i) {
                out[i] = std::exp(input[i]);
                local += out[i];
            }
            // The final scale pass reuses the exp results.
            float inv = 1.0f / local; // per-chunk normalization proxy
            for (uint64_t i = beg; i < end; ++i)
                out[i] *= inv;
        });

    // Accuracy: exact softmax over a small window.
    size_t w = std::min<uint64_t>(sample, 10000);
    double sum = 0.0;
    for (size_t i = 0; i < w; ++i)
        sum += std::exp((double)input[i]);
    ErrorAccumulator acc;
    double chunkSum = 0.0;
    for (size_t i = 0; i < w; ++i)
        chunkSum += std::exp(input[i]);
    for (size_t i = 0; i < w; ++i)
        acc.add(std::exp(input[i]) / chunkSum,
                std::exp((double)input[i]) / sum);
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

// ---------------------------------------------------------------- PIM

WorkloadResult
pimSigmoid(ActVariant v, const WorkloadConfig& cfg)
{
    auto expE = makeExp(v, cfg);

    WorkloadResult res;
    res.workload = "Sigmoid";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;
    res.setupSeconds = expE->setupSeconds();

    sim::PimSystem sys(cfg.simulatedDpus);
    uint32_t perDpu = cfg.elementsPerSimDpu;
    uint64_t simTotal = static_cast<uint64_t>(perDpu) * sys.numDpus();
    auto input = uniformFloats(simTotal, cfg.inputLo, cfg.inputHi, cfg.seed);

    uint32_t inAddr = 0, outAddr = 0;
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        sim::DpuCore& dpu = sys.dpu(d);
        expE->attach(dpu);
        uint32_t bytes = perDpu * sizeof(float);
        inAddr = dpu.mramAlloc(bytes);
        outAddr = dpu.mramAlloc(bytes);
        dpu.hostWriteMram(inAddr,
                          input.data() +
                              static_cast<uint64_t>(d) * perDpu,
                          bytes);
    }

    constexpr uint32_t chunk = 256;
    sys.launchAll(cfg.tasklets, [&](sim::TaskletContext& ctx) {
        float buf[chunk];
        uint32_t chunks = (perDpu + chunk - 1) / chunk;
        for (uint32_t c = ctx.taskletId(); c < chunks;
             c += ctx.numTasklets()) {
            uint32_t beg = c * chunk;
            uint32_t cnt = std::min(chunk, perDpu - beg);
            ctx.mramRead(inAddr + beg * sizeof(float), buf,
                         cnt * sizeof(float));
            for (uint32_t i = 0; i < cnt; ++i) {
                ctx.charge(4);
                float e = expE->eval(sf::neg(buf[i], &ctx), &ctx);
                buf[i] =
                    sf::div(1.0f, sf::add(1.0f, e, &ctx), &ctx);
            }
            ctx.mramWrite(outAddr + beg * sizeof(float), buf,
                          cnt * sizeof(float));
        }
    });

    res.pimKernelSeconds =
        projectPimSeconds(cfg, sys.model(), sys.lastMaxCycles());
    const sim::CostModel& model = sys.model();
    res.hostToPimSeconds = model.parallelTransferSeconds(
        cfg.totalElements * sizeof(float),
        model.ranksEngaged(cfg.systemDpus));
    res.pimToHostSeconds = res.hostToPimSeconds;
    res.seconds = res.pimKernelSeconds + res.hostToPimSeconds +
                  res.pimToHostSeconds + res.setupSeconds;

    ErrorAccumulator acc;
    std::vector<float> out(perDpu);
    sys.dpu(0).hostReadMram(outAddr, out.data(),
                            perDpu * sizeof(float));
    for (uint32_t i = 0; i < perDpu; ++i)
        acc.add(out[i], 1.0 / (1.0 + std::exp(-(double)input[i])));
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

WorkloadResult
pimSoftmax(ActVariant v, const WorkloadConfig& cfg)
{
    auto expE = makeExp(v, cfg);

    WorkloadResult res;
    res.workload = "Softmax";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;
    res.setupSeconds = expE->setupSeconds();

    sim::PimSystem sys(cfg.simulatedDpus);
    uint32_t perDpu = cfg.elementsPerSimDpu;
    uint64_t simTotal = static_cast<uint64_t>(perDpu) * sys.numDpus();
    auto input = uniformFloats(simTotal, cfg.inputLo, cfg.inputHi, cfg.seed);

    uint32_t inAddr = 0, expAddr = 0, sumAddr = 0;
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        sim::DpuCore& dpu = sys.dpu(d);
        expE->attach(dpu);
        uint32_t bytes = perDpu * sizeof(float);
        inAddr = dpu.mramAlloc(bytes);
        expAddr = dpu.mramAlloc(bytes);
        sumAddr = dpu.mramAlloc(cfg.tasklets *
                                sizeof(float)); // partial sums
        dpu.hostWriteMram(inAddr,
                          input.data() +
                              static_cast<uint64_t>(d) * perDpu,
                          bytes);
    }

    // Optional pass 0 (stable softmax): global max through the host,
    // so the exponentials cannot overflow for wide input ranges.
    constexpr uint32_t chunk = 256;
    double pass0 = 0.0, pass1 = 0.0, pass2 = 0.0;
    float globalMax = 0.0f;
    if (cfg.stableSoftmax) {
        pass0 = sys.launchAll(cfg.tasklets,
                              [&](sim::TaskletContext& ctx) {
            float buf[chunk];
            float localMax = -3.4e38f;
            uint32_t chunks = (perDpu + chunk - 1) / chunk;
            for (uint32_t c = ctx.taskletId(); c < chunks;
                 c += ctx.numTasklets()) {
                uint32_t beg = c * chunk;
                uint32_t cnt = std::min(chunk, perDpu - beg);
                ctx.mramRead(inAddr + beg * sizeof(float), buf,
                             cnt * sizeof(float));
                for (uint32_t i = 0; i < cnt; ++i) {
                    ctx.charge(2);
                    if (sf::lt(localMax, buf[i], &ctx))
                        localMax = buf[i];
                }
            }
            ctx.mramWrite(sumAddr + ctx.taskletId() * sizeof(float),
                          &localMax, sizeof(float));
        });
        globalMax = -3.4e38f;
        std::vector<float> maxes(cfg.tasklets);
        for (uint32_t d = 0; d < sys.numDpus(); ++d) {
            sys.dpu(d).hostReadMram(sumAddr, maxes.data(),
                                    cfg.tasklets * sizeof(float));
            for (uint32_t t = 0; t < cfg.tasklets; ++t)
                globalMax = std::max(globalMax, maxes[t]);
        }
    }

    // Pass 1: e^(x - max) and per-tasklet partial sums.
    {
        bool stable = cfg.stableSoftmax;
        float maxV = globalMax;
        double secs = sys.launchAll(cfg.tasklets,
                                    [&](sim::TaskletContext& ctx) {
            float buf[chunk];
            float partial = 0.0f;
            uint32_t chunks = (perDpu + chunk - 1) / chunk;
            for (uint32_t c = ctx.taskletId(); c < chunks;
                 c += ctx.numTasklets()) {
                uint32_t beg = c * chunk;
                uint32_t cnt = std::min(chunk, perDpu - beg);
                ctx.mramRead(inAddr + beg * sizeof(float), buf,
                             cnt * sizeof(float));
                for (uint32_t i = 0; i < cnt; ++i) {
                    ctx.charge(4);
                    float x = buf[i];
                    if (stable)
                        x = sf::sub(x, maxV, &ctx);
                    buf[i] = expE->eval(x, &ctx);
                    partial = sf::add(partial, buf[i], &ctx);
                }
                ctx.mramWrite(expAddr + beg * sizeof(float), buf,
                              cnt * sizeof(float));
            }
            ctx.mramWrite(sumAddr + ctx.taskletId() * sizeof(float),
                          &partial, sizeof(float));
        });
        pass1 = secs;
    }

    // Host-side reduction across tasklets and DPUs (the inter-PIM-core
    // communication path of Figure 2), then broadcast 1/sum.
    double simSum = 0.0;
    std::vector<float> partials(cfg.tasklets);
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        sys.dpu(d).hostReadMram(sumAddr, partials.data(),
                                cfg.tasklets * sizeof(float));
        for (uint32_t t = 0; t < cfg.tasklets; ++t)
            simSum += partials[t];
    }
    // Scale the simulated sum to the full problem (uniform inputs).
    double fullSum = simSum * static_cast<double>(cfg.totalElements) /
                     static_cast<double>(simTotal);
    float invSimSum = static_cast<float>(1.0 / simSum);
    for (uint32_t d = 0; d < sys.numDpus(); ++d)
        sys.dpu(d).hostWriteMram(sumAddr, &invSimSum, sizeof(float));
    (void)fullSum;

    // Pass 2: scale by the broadcast 1/sum (one multiply/element).
    {
        double secs = sys.launchAll(cfg.tasklets,
                                    [&](sim::TaskletContext& ctx) {
            float buf[chunk];
            float inv;
            ctx.mramRead(sumAddr, &inv, sizeof(float));
            uint32_t chunks = (perDpu + chunk - 1) / chunk;
            for (uint32_t c = ctx.taskletId(); c < chunks;
                 c += ctx.numTasklets()) {
                uint32_t beg = c * chunk;
                uint32_t cnt = std::min(chunk, perDpu - beg);
                ctx.mramRead(expAddr + beg * sizeof(float), buf,
                             cnt * sizeof(float));
                for (uint32_t i = 0; i < cnt; ++i) {
                    ctx.charge(4);
                    buf[i] = sf::mul(buf[i], inv, &ctx);
                }
                ctx.mramWrite(expAddr + beg * sizeof(float), buf,
                              cnt * sizeof(float));
            }
        });
        pass2 = secs;
    }

    // Projection: all passes scale with elements/DPU; the reductions
    // add tiny transfers (partial maxes/sums out, 1/sum back).
    uint64_t pass0Cycles = static_cast<uint64_t>(
        pass0 * sys.model().frequencyHz);
    uint64_t pass1Cycles = static_cast<uint64_t>(
        pass1 * sys.model().frequencyHz);
    uint64_t pass2Cycles = static_cast<uint64_t>(
        pass2 * sys.model().frequencyHz);
    res.pimKernelSeconds =
        projectPimSeconds(cfg, sys.model(), pass0Cycles) +
        projectPimSeconds(cfg, sys.model(), pass1Cycles) +
        projectPimSeconds(cfg, sys.model(), pass2Cycles);
    const sim::CostModel& model = sys.model();
    const uint32_t ranks = model.ranksEngaged(cfg.systemDpus);
    res.hostToPimSeconds =
        model.parallelTransferSeconds(cfg.totalElements * sizeof(float),
                                      ranks) +
        model.parallelTransferSeconds(cfg.systemDpus * sizeof(float),
                                      ranks);
    res.pimToHostSeconds =
        model.parallelTransferSeconds(cfg.totalElements * sizeof(float),
                                      ranks) +
        model.parallelTransferSeconds(
            cfg.systemDpus * cfg.tasklets * sizeof(float), ranks);
    res.seconds = res.pimKernelSeconds + res.hostToPimSeconds +
                  res.pimToHostSeconds + res.setupSeconds;

    // Accuracy over the simulated subset (its own softmax problem).
    double refSum = 0.0;
    for (uint64_t i = 0; i < simTotal; ++i)
        refSum += std::exp((double)input[i]);
    ErrorAccumulator acc;
    std::vector<float> out(perDpu);
    sys.dpu(0).hostReadMram(expAddr, out.data(),
                            perDpu * sizeof(float));
    for (uint32_t i = 0; i < perDpu; ++i)
        acc.add(out[i], std::exp((double)input[i]) / refSum);
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

} // namespace

WorkloadResult
runSigmoid(ActVariant variant, const WorkloadConfig& cfg)
{
    if (variant == ActVariant::CpuSingle ||
        variant == ActVariant::CpuMulti) {
        return cpuSigmoid(variant, cfg);
    }
    return pimSigmoid(variant, cfg);
}

WorkloadResult
runSoftmax(ActVariant variant, const WorkloadConfig& cfg)
{
    if (variant == ActVariant::CpuSingle ||
        variant == ActVariant::CpuMulti) {
        return cpuSoftmax(variant, cfg);
    }
    return pimSoftmax(variant, cfg);
}

std::vector<WorkloadResult>
runSigmoidAll(const WorkloadConfig& cfg)
{
    std::vector<WorkloadResult> rows;
    for (ActVariant v :
         {ActVariant::CpuSingle, ActVariant::CpuMulti,
          ActVariant::PimPoly, ActVariant::PimMLut,
          ActVariant::PimLLut}) {
        rows.push_back(runSigmoid(v, cfg));
    }
    return rows;
}

std::vector<WorkloadResult>
runSoftmaxAll(const WorkloadConfig& cfg)
{
    std::vector<WorkloadResult> rows;
    for (ActVariant v :
         {ActVariant::CpuSingle, ActVariant::CpuMulti,
          ActVariant::PimPoly, ActVariant::PimMLut,
          ActVariant::PimLLut}) {
        rows.push_back(runSoftmax(v, cfg));
    }
    return rows;
}

} // namespace work
} // namespace tpl
