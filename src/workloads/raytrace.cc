/**
 * @file
 * Ray-shading workload implementation.
 */

#include "workloads/raytrace.h"

#include <algorithm>
#include <cmath>

#include "common/error_metrics.h"
#include "common/bitops.h"
#include "common/rng.h"
#include "softfloat/softfloat.h"
#include "transpim/evaluator.h"
#include "transpim/ldexp.h"

namespace tpl {
namespace work {

using transpim::Function;
using transpim::FunctionEvaluator;
using transpim::Method;
using transpim::MethodSpec;
using transpim::Placement;

namespace {

// Scene constants: camera at (0,0,3) looking down -z at a unit sphere
// centered on the origin; light direction (1,1,1)/sqrt(3).
constexpr float kCamZ = 3.0f;
constexpr float kLight = 0.57735026919f;
constexpr int kShininess = 16; // power of two: the scale is an ldexp

std::string
variantLabel(RayVariant v)
{
    switch (v) {
      case RayVariant::CpuSingle: return "CPU 1T";
      case RayVariant::CpuMulti: return "CPU 32T";
      case RayVariant::PimPoly: return "PIM poly";
      case RayVariant::PimLLut: return "PIM L-LUT interp.";
    }
    return "?";
}

/** Ray directions (dx, dy) with dz = -1 implied; interleaved pairs. */
std::vector<float>
generateRays(uint64_t rays, uint64_t seed)
{
    return uniformFloats(rays * 2, -0.5f, 0.5f, seed);
}

/** Double-precision shading oracle. */
double
shadeReference(float dx, float dy)
{
    double len2 = (double)dx * dx + (double)dy * dy + 1.0;
    double inv = 1.0 / std::sqrt(len2);
    double nz = -inv; // normalized dz
    double b = kCamZ * nz;
    double disc = b * b - 8.0;
    if (disc < 0.0)
        return 0.0;
    double t = -b - std::sqrt(disc);
    double px = t * (dx * inv);
    double py = t * (dy * inv);
    double pz = kCamZ + t * nz;
    double diff = (px + py + pz) * kLight;
    if (diff <= 1e-4)
        return 0.0;
    double spec = std::exp2(kShininess * std::log2(diff));
    return diff + 0.5 * spec;
}

/** Float/libm shading (the CPU baseline kernel). */
float
shadeCpu(float dx, float dy)
{
    float len2 = dx * dx + dy * dy + 1.0f;
    float inv = 1.0f / std::sqrt(len2);
    float nz = -inv;
    float b = kCamZ * nz;
    float disc = b * b - 8.0f;
    if (disc < 0.0f)
        return 0.0f;
    float t = -b - std::sqrt(disc);
    float px = t * (dx * inv);
    float py = t * (dy * inv);
    float pz = kCamZ + t * nz;
    float diff = (px + py + pz) * kLight;
    if (diff <= 1e-4f)
        return 0.0f;
    float spec = std::exp2(kShininess * std::log2(diff));
    return diff + 0.5f * spec;
}

/** The four transcendental providers of a PIM variant. */
struct RayFunctions
{
    std::shared_ptr<FunctionEvaluator> rsqrt;
    std::shared_ptr<FunctionEvaluator> sqrt;
    std::shared_ptr<FunctionEvaluator> log2;
    std::shared_ptr<FunctionEvaluator> exp2;
};

RayFunctions
makeFunctions(RayVariant v, const WorkloadConfig& cfg)
{
    MethodSpec spec;
    spec.interpolated = true;
    spec.placement = Placement::Wram;
    spec.log2Entries = cfg.log2Entries;
    spec.polyDegree = cfg.polyDegree;
    spec.method =
        v == RayVariant::PimPoly ? Method::Poly : Method::LLut;
    RayFunctions f;
    f.rsqrt = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Rsqrt, spec));
    f.sqrt = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Sqrt, spec));
    f.log2 = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Log2, spec));
    f.exp2 = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Exp2, spec));
    return f;
}

/** One ray shaded with instrumented PIM arithmetic. */
float
shadePim(const RayFunctions& fn, float dx, float dy, InstrSink* sink)
{
    using namespace tpl::sf;
    using transpim::pimLdexp;

    float len2 = add(add(mul(dx, dx, sink), mul(dy, dy, sink), sink),
                     1.0f, sink);
    float inv = fn.rsqrt->eval(len2, sink);
    float nz = neg(inv, sink);
    float b = mul(kCamZ, nz, sink);
    float disc = sub(mul(b, b, sink), 8.0f, sink);
    chargeInstr(sink, 2); // sign test + branch
    if (floatBits(disc) >> 31)
        return 0.0f; // ray misses the sphere
    float t = sub(neg(b, sink), fn.sqrt->eval(disc, sink), sink);
    float px = mul(t, mul(dx, inv, sink), sink);
    float py = mul(t, mul(dy, inv, sink), sink);
    float pz = add(kCamZ, mul(t, nz, sink), sink);
    float diff =
        mul(add(add(px, py, sink), pz, sink), kLight, sink);
    chargeInstr(sink, 2);
    if (le(diff, 1e-4f, sink))
        return 0.0f;
    // diff^16 = 2^(16 * log2 diff); the x16 is an exponent add.
    float l2 = fn.log2->eval(diff, sink);
    float spec = fn.exp2->eval(pimLdexp(l2, 4, sink), sink);
    return add(diff, pimLdexp(spec, -1, sink), sink);
}

WorkloadResult
runCpu(RayVariant v, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto rays = generateRays(sample, cfg.seed);
    std::vector<float> out(sample);

    uint32_t threads = v == RayVariant::CpuSingle ? 1 : cfg.cpuThreads;
    WorkloadResult res;
    res.workload = "Raytrace";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;
    res.seconds = timeCpuBaseline(
        cfg, threads, [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i)
                out[i] = shadeCpu(rays[2 * i], rays[2 * i + 1]);
        });

    ErrorAccumulator acc;
    for (uint64_t i = 0; i < std::min<uint64_t>(sample, 5000); ++i)
        acc.add(out[i], shadeReference(rays[2 * i], rays[2 * i + 1]));
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

WorkloadResult
runPim(RayVariant v, const WorkloadConfig& cfg)
{
    RayFunctions fn = makeFunctions(v, cfg);

    WorkloadResult res;
    res.workload = "Raytrace";
    res.variant = variantLabel(v);
    res.elements = cfg.totalElements;
    res.setupSeconds = fn.rsqrt->setupSeconds() +
                       fn.sqrt->setupSeconds() +
                       fn.log2->setupSeconds() +
                       fn.exp2->setupSeconds();

    sim::PimSystem sys(cfg.simulatedDpus);
    uint32_t perDpu = cfg.elementsPerSimDpu;
    uint64_t simRays = static_cast<uint64_t>(perDpu) * sys.numDpus();
    auto rays = generateRays(simRays, cfg.seed);

    uint32_t inAddr = 0, outAddr = 0;
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        sim::DpuCore& dpu = sys.dpu(d);
        fn.rsqrt->attach(dpu);
        fn.sqrt->attach(dpu);
        fn.log2->attach(dpu);
        fn.exp2->attach(dpu);
        inAddr = dpu.mramAlloc(perDpu * 2 * sizeof(float));
        outAddr = dpu.mramAlloc(perDpu * sizeof(float));
        dpu.hostWriteMram(
            inAddr, rays.data() + static_cast<uint64_t>(d) * perDpu * 2,
            perDpu * 2 * sizeof(float));
    }

    constexpr uint32_t chunk = 128;
    sys.launchAll(cfg.tasklets, [&](sim::TaskletContext& ctx) {
        float dirs[2 * chunk];
        float out[chunk];
        uint32_t chunks = (perDpu + chunk - 1) / chunk;
        for (uint32_t c = ctx.taskletId(); c < chunks;
             c += ctx.numTasklets()) {
            uint32_t beg = c * chunk;
            uint32_t cnt = std::min(chunk, perDpu - beg);
            ctx.mramRead(inAddr + beg * 2 * sizeof(float), dirs,
                         cnt * 2 * sizeof(float));
            for (uint32_t i = 0; i < cnt; ++i) {
                ctx.charge(5);
                out[i] = shadePim(fn, dirs[2 * i], dirs[2 * i + 1],
                                  &ctx);
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
        cfg.totalElements * 2 * sizeof(float), ranks);
    res.pimToHostSeconds = model.parallelTransferSeconds(
        cfg.totalElements * sizeof(float), ranks);
    res.seconds = res.pimKernelSeconds + res.hostToPimSeconds +
                  res.pimToHostSeconds + res.setupSeconds;

    ErrorAccumulator acc;
    std::vector<float> out(perDpu);
    sys.dpu(0).hostReadMram(outAddr, out.data(),
                            perDpu * sizeof(float));
    for (uint32_t i = 0; i < perDpu; ++i)
        acc.add(out[i], shadeReference(rays[2 * i], rays[2 * i + 1]));
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

} // namespace

WorkloadResult
runRaytrace(RayVariant variant, const WorkloadConfig& cfg)
{
    if (variant == RayVariant::CpuSingle ||
        variant == RayVariant::CpuMulti) {
        return runCpu(variant, cfg);
    }
    return runPim(variant, cfg);
}

std::vector<WorkloadResult>
runRaytraceAll(const WorkloadConfig& cfg)
{
    std::vector<WorkloadResult> rows;
    for (RayVariant v : {RayVariant::CpuSingle, RayVariant::CpuMulti,
                         RayVariant::PimPoly, RayVariant::PimLLut}) {
        rows.push_back(runRaytrace(v, cfg));
    }
    return rows;
}

} // namespace work
} // namespace tpl
