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

namespace {

// Scene constants: camera at (0,0,3) looking down -z at a unit sphere
// centered on the origin; light direction (1,1,1)/sqrt(3).
constexpr float kCamZ = 3.0f;
constexpr float kLight = 0.57735026919f;
constexpr int kShininess = 16; // power of two: the scale is an ldexp

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

/**
 * One ray shaded with instrumented PIM arithmetic; @p fn holds the
 * rsqrt, sqrt, log2 and exp2 evaluators, in that order.
 */
float
shadePim(std::span<const FunctionEvaluator> fn, float dx, float dy,
         InstrSink* sink)
{
    using namespace tpl::sf;
    using transpim::pimLdexp;

    float len2 = add(add(mul(dx, dx, sink), mul(dy, dy, sink), sink),
                     1.0f, sink);
    float inv = fn[0].eval(len2, sink);
    float nz = neg(inv, sink);
    float b = mul(kCamZ, nz, sink);
    float disc = sub(mul(b, b, sink), 8.0f, sink);
    chargeInstr(sink, 2); // sign test + branch
    if (floatBits(disc) >> 31)
        return 0.0f; // ray misses the sphere
    float t = sub(neg(b, sink), fn[1].eval(disc, sink), sink);
    float px = mul(t, mul(dx, inv, sink), sink);
    float py = mul(t, mul(dy, inv, sink), sink);
    float pz = add(kCamZ, mul(t, nz, sink), sink);
    float diff =
        mul(add(add(px, py, sink), pz, sink), kLight, sink);
    chargeInstr(sink, 2);
    if (le(diff, 1e-4f, sink))
        return 0.0f;
    // diff^16 = 2^(16 * log2 diff); the x16 is an exponent add.
    float l2 = fn[2].eval(diff, sink);
    float spec = fn[3].eval(pimLdexp(l2, 4, sink), sink);
    return add(diff, pimLdexp(spec, -1, sink), sink);
}

WorkloadResult
runCpu(Variant v, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    auto rays = generateRays(sample, cfg.seed);
    std::vector<float> out(sample);
    return cpuRow(
        "Raytrace", v, cfg,
        [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i)
                out[i] = shadeCpu(rays[2 * i], rays[2 * i + 1]);
        },
        [&](ErrorAccumulator& acc) {
            for (uint64_t i = 0; i < std::min<uint64_t>(sample, 5000);
                 ++i)
                acc.add(out[i],
                        shadeReference(rays[2 * i], rays[2 * i + 1]));
        });
}

WorkloadResult
runPim(Variant v, const WorkloadConfig& cfg)
{
    std::vector<FunctionEvaluator> fn = makeEvaluators(
        v, cfg,
        {Function::Rsqrt, Function::Sqrt, Function::Log2, Function::Exp2});
    PimRun run("Raytrace", v, cfg, fn);
    auto rays = generateRays(run.simulatedElements(), cfg.seed);
    Array in = run.stream(2, rays);
    Array out = run.stream(1);

    run.pass({.chunk = 128,
              .reads = {in},
              .writes = {out},
              .element = [&](Tasklet& t, uint32_t i) {
                  t.ctx.charge(5);
                  t.out[0][i] = shadePim(fn, t.in[0][2 * i],
                                         t.in[0][2 * i + 1], &t.ctx);
              }});

    ErrorAccumulator acc;
    std::vector<float> y = run.read(out, 0);
    for (uint32_t i = 0; i < run.perDpu(); ++i)
        acc.add(y[i], shadeReference(rays[2 * i], rays[2 * i + 1]));
    return run.row({cfg.totalElements * 2 * sizeof(float)},
                   {cfg.totalElements * sizeof(float)}, acc);
}

} // namespace

WorkloadResult
runRaytrace(Variant variant, const WorkloadConfig& cfg)
{
    return isCpu(variant) ? runCpu(variant, cfg) : runPim(variant, cfg);
}

} // namespace work
} // namespace tpl
