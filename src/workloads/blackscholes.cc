/**
 * @file
 * Blackscholes implementation: CPU baselines + PIM variants.
 */

#include "workloads/blackscholes.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error_metrics.h"
#include "common/rng.h"
#include "softfloat/softfloat.h"
#include "transpim/evaluator.h"
#include "transpim/fuzzy_lut.h"
#include "transpim/ldexp.h"

namespace tpl {
namespace work {

using transpim::Function;
using transpim::FunctionEvaluator;
using transpim::Method;
using transpim::MethodSpec;
using transpim::Placement;

OptionBatch
generateOptions(size_t n, uint64_t seed)
{
    SplitMix64 rng(seed);
    OptionBatch b;
    b.spot.resize(n);
    b.strike.resize(n);
    b.rate.resize(n);
    b.vol.resize(n);
    b.expiry.resize(n);
    for (size_t i = 0; i < n; ++i) {
        b.spot[i] = rng.nextFloat(10.0f, 200.0f);
        b.strike[i] = b.spot[i] * rng.nextFloat(0.8f, 1.25f);
        b.rate[i] = rng.nextFloat(0.01f, 0.05f);
        b.vol[i] = rng.nextFloat(0.10f, 0.50f);
        b.expiry[i] = rng.nextFloat(0.1f, 2.0f);
    }
    return b;
}

namespace {

double
cndfDouble(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

/** Price one option in double (the oracle). */
void
priceOneReference(const OptionBatch& b, size_t i, double& call,
                  double& put)
{
    double s = b.spot[i];
    double k = b.strike[i];
    double r = b.rate[i];
    double v = b.vol[i];
    double t = b.expiry[i];
    double d1 = (std::log(s / k) + (r + 0.5 * v * v) * t) /
                (v * std::sqrt(t));
    double d2 = d1 - v * std::sqrt(t);
    double ke = k * std::exp(-r * t);
    call = s * cndfDouble(d1) - ke * cndfDouble(d2);
    put = call - s + ke;
}

/** Price one option in float with libm (the CPU baseline kernel). */
void
priceOneCpu(const OptionBatch& b, size_t i, float& call, float& put)
{
    float s = b.spot[i];
    float k = b.strike[i];
    float r = b.rate[i];
    float v = b.vol[i];
    float t = b.expiry[i];
    float sq = std::sqrt(t);
    float d1 = (std::log(s / k) + (r + 0.5f * v * v) * t) / (v * sq);
    float d2 = d1 - v * sq;
    float n1 = 0.5f * std::erfc(-d1 * 0.70710678f);
    float n2 = 0.5f * std::erfc(-d2 * 0.70710678f);
    float ke = k * std::exp(-r * t);
    call = s * n1 - ke * n2;
    put = call - s + ke;
}

/** The four transcendental providers a PIM variant plugs in. */
struct BsFunctions
{
    std::function<float(float, InstrSink*)> log;
    std::function<float(float, InstrSink*)> sqrt;
    std::function<float(float, InstrSink*)> exp;
    std::function<float(float, InstrSink*)> cndf;
    std::function<void(sim::DpuCore&)> attach;
    uint32_t memoryBytes = 0;
    double setupSeconds = 0;
};

BsFunctions
fromEvaluators(Method method, const WorkloadConfig& cfg)
{
    MethodSpec spec;
    spec.method = method;
    spec.interpolated = true;
    spec.placement = Placement::Wram;
    spec.log2Entries = cfg.log2Entries;
    spec.polyDegree = cfg.polyDegree;

    auto logE = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Log, spec));
    auto sqrtE = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Sqrt, spec));
    auto expE = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Exp, spec));
    auto cndfE = std::make_shared<FunctionEvaluator>(
        FunctionEvaluator::create(Function::Cndf, spec));

    BsFunctions f;
    f.log = [logE](float x, InstrSink* s) { return logE->eval(x, s); };
    f.sqrt = [sqrtE](float x, InstrSink* s) { return sqrtE->eval(x, s); };
    f.exp = [expE](float x, InstrSink* s) { return expE->eval(x, s); };
    f.cndf = [cndfE](float x, InstrSink* s) { return cndfE->eval(x, s); };
    f.attach = [logE, sqrtE, expE, cndfE](sim::DpuCore& c) {
        logE->attach(c);
        sqrtE->attach(c);
        expE->attach(c);
        cndfE->attach(c);
    };
    f.memoryBytes = logE->memoryBytes() + sqrtE->memoryBytes() +
                    expE->memoryBytes() + cndfE->memoryBytes();
    f.setupSeconds = logE->setupSeconds() + sqrtE->setupSeconds() +
                     expE->setupSeconds() + cndfE->setupSeconds();
    return f;
}

BsFunctions
fixedLLutFunctions(const WorkloadConfig& cfg)
{
    // Domain-tuned Q3.28 tables: the generic log/sqrt domains do not
    // fit fixed point, the Blackscholes parameter ranges do.
    using transpim::LLutFixed;
    auto start = std::chrono::steady_clock::now();
    uint32_t n = 1u << cfg.log2Entries;
    auto logT = std::make_shared<LLutFixed>(
        [](double x) { return std::log(x); }, 0.70, 1.35, n, true,
        Placement::Wram);
    auto sqrtT = std::make_shared<LLutFixed>(
        [](double x) { return std::sqrt(x); }, 0.05, 2.05, n, true,
        Placement::Wram);
    auto expT = std::make_shared<LLutFixed>(
        [](double x) { return std::exp(x); }, -0.15, 0.01, n, true,
        Placement::Wram);
    auto cndfT = std::make_shared<LLutFixed>(
        [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); },
        -7.99, 7.99, n, true, Placement::Wram);
    auto end = std::chrono::steady_clock::now();

    BsFunctions f;
    f.log = [logT](float x, InstrSink* s) { return logT->eval(x, s); };
    f.sqrt = [sqrtT](float x, InstrSink* s) { return sqrtT->eval(x, s); };
    f.exp = [expT](float x, InstrSink* s) { return expT->eval(x, s); };
    f.cndf = [cndfT](float x, InstrSink* s) {
        // Clamp into the table domain: CNDF saturates outside.
        chargeInstr(s, 2);
        if (x < -7.9f)
            x = -7.9f;
        if (x > 7.9f)
            x = 7.9f;
        return cndfT->eval(x, s);
    };
    f.attach = [logT, sqrtT, expT, cndfT](sim::DpuCore& c) {
        logT->attach(c);
        sqrtT->attach(c);
        expT->attach(c);
        cndfT->attach(c);
    };
    f.memoryBytes = logT->memoryBytes() + sqrtT->memoryBytes() +
                    expT->memoryBytes() + cndfT->memoryBytes();
    f.setupSeconds = std::chrono::duration<double>(end - start).count();
    return f;
}

/** One option priced with instrumented PIM arithmetic. */
void
priceOnePim(const BsFunctions& fn, float s, float k, float r, float v,
            float t, InstrSink* sink, float& call, float& put)
{
    using namespace tpl::sf;
    using transpim::pimLdexp;

    float ratio = div(s, k, sink);
    float lnr = fn.log(ratio, sink);
    float v2 = mul(v, v, sink);
    float rv = add(r, pimLdexp(v2, -1, sink), sink);
    float num = add(lnr, mul(rv, t, sink), sink);
    float sq = fn.sqrt(t, sink);
    float vsq = mul(v, sq, sink);
    float d1 = div(num, vsq, sink);
    float d2 = sub(d1, vsq, sink);
    float n1 = fn.cndf(d1, sink);
    float n2 = fn.cndf(d2, sink);
    float e = fn.exp(neg(mul(r, t, sink), sink), sink);
    float ke = mul(k, e, sink);
    call = sub(mul(s, n1, sink), mul(ke, n2, sink), sink);
    // Put-call parity: put = call - S + K*e^-rT.
    put = add(sub(call, s, sink), ke, sink);
}

WorkloadResult
runCpu(BsVariant variant, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    OptionBatch batch = generateOptions(sample, cfg.seed);
    OptionPrices out;
    out.call.resize(sample);
    out.put.resize(sample);

    uint32_t threads = variant == BsVariant::CpuSingle ? 1
                                                       : cfg.cpuThreads;
    WorkloadResult res;
    res.workload = "Blackscholes";
    res.variant = threads == 1 ? "CPU 1T"
                               : "CPU " + std::to_string(threads) + "T";
    res.elements = cfg.totalElements;
    res.seconds = timeCpuBaseline(
        cfg, threads, [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i)
                priceOneCpu(batch, i, out.call[i], out.put[i]);
        });

    // Accuracy of the float CPU kernel vs the double oracle.
    ErrorAccumulator acc;
    for (uint64_t i = 0; i < std::min<uint64_t>(sample, 10000); ++i) {
        double c, p;
        priceOneReference(batch, i, c, p);
        acc.add(out.call[i], c);
        acc.add(out.put[i], p);
    }
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

WorkloadResult
runPim(BsVariant variant, const WorkloadConfig& cfg)
{
    BsFunctions fn;
    std::string label;
    switch (variant) {
      case BsVariant::PimPoly:
        fn = fromEvaluators(Method::Poly, cfg);
        label = "PIM poly";
        break;
      case BsVariant::PimMLut:
        fn = fromEvaluators(Method::MLut, cfg);
        label = "PIM M-LUT interp.";
        break;
      case BsVariant::PimLLut:
        fn = fromEvaluators(Method::LLut, cfg);
        label = "PIM L-LUT interp.";
        break;
      default:
        fn = fixedLLutFunctions(cfg);
        label = "PIM fixed L-LUT interp.";
        break;
    }

    WorkloadResult res;
    res.workload = "Blackscholes";
    res.variant = label;
    res.elements = cfg.totalElements;
    res.setupSeconds = fn.setupSeconds;

    sim::PimSystem sys(cfg.simulatedDpus);
    uint32_t perDpu = cfg.elementsPerSimDpu;
    uint64_t simTotal = static_cast<uint64_t>(perDpu) * sys.numDpus();
    OptionBatch batch = generateOptions(simTotal, cfg.seed);

    // Place tables + input arrays on every simulated DPU.
    std::vector<uint32_t> addr(7);
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        sim::DpuCore& dpu = sys.dpu(d);
        fn.attach(dpu);
        uint32_t bytes = perDpu * sizeof(float);
        for (int a = 0; a < 7; ++a)
            addr[a] = dpu.mramAlloc(bytes); // 5 in + 2 out
        uint64_t off = static_cast<uint64_t>(d) * perDpu;
        dpu.hostWriteMram(addr[0], batch.spot.data() + off, bytes);
        dpu.hostWriteMram(addr[1], batch.strike.data() + off, bytes);
        dpu.hostWriteMram(addr[2], batch.rate.data() + off, bytes);
        dpu.hostWriteMram(addr[3], batch.vol.data() + off, bytes);
        dpu.hostWriteMram(addr[4], batch.expiry.data() + off, bytes);
    }

    constexpr uint32_t chunk = 128;
    sys.launchAll(cfg.tasklets, [&](sim::TaskletContext& ctx) {
        float s[chunk], k[chunk], r[chunk], v[chunk], t[chunk];
        float call[chunk], put[chunk];
        uint32_t chunks = (perDpu + chunk - 1) / chunk;
        for (uint32_t c = ctx.taskletId(); c < chunks;
             c += ctx.numTasklets()) {
            uint32_t beg = c * chunk;
            uint32_t cnt = std::min(chunk, perDpu - beg);
            uint32_t bo = beg * sizeof(float);
            uint32_t bb = cnt * sizeof(float);
            ctx.mramRead(addr[0] + bo, s, bb);
            ctx.mramRead(addr[1] + bo, k, bb);
            ctx.mramRead(addr[2] + bo, r, bb);
            ctx.mramRead(addr[3] + bo, v, bb);
            ctx.mramRead(addr[4] + bo, t, bb);
            for (uint32_t i = 0; i < cnt; ++i) {
                ctx.charge(6); // loop + WRAM traffic
                priceOnePim(fn, s[i], k[i], r[i], v[i], t[i], &ctx,
                            call[i], put[i]);
            }
            ctx.mramWrite(addr[5] + bo, call, bb);
            ctx.mramWrite(addr[6] + bo, put, bb);
        }
    });

    // Project the slowest simulated DPU to the full machine.
    res.pimKernelSeconds =
        projectPimSeconds(cfg, sys.model(), sys.lastMaxCycles());
    const sim::CostModel& model = sys.model();
    const uint32_t ranks = model.ranksEngaged(cfg.systemDpus);
    res.hostToPimSeconds = model.parallelTransferSeconds(
        cfg.totalElements * 5 * sizeof(float), ranks);
    res.pimToHostSeconds = model.parallelTransferSeconds(
        cfg.totalElements * 2 * sizeof(float), ranks);
    res.seconds = res.pimKernelSeconds + res.hostToPimSeconds +
                  res.pimToHostSeconds + res.setupSeconds;

    // Accuracy from a simulated DPU's actual outputs. All DPUs share
    // the same MRAM layout, so addr[] (recorded on the last DPU) is
    // valid on any of them; read back the last DPU's share.
    ErrorAccumulator acc;
    std::vector<float> call(perDpu), put(perDpu);
    sim::DpuCore& dpuL = sys.dpu(sys.numDpus() - 1);
    dpuL.hostReadMram(addr[5], call.data(), perDpu * sizeof(float));
    dpuL.hostReadMram(addr[6], put.data(), perDpu * sizeof(float));
    uint64_t off =
        static_cast<uint64_t>(sys.numDpus() - 1) * perDpu;
    for (uint32_t i = 0; i < perDpu; ++i) {
        double c, p;
        priceOneReference(batch, off + i, c, p);
        acc.add(call[i], c);
        acc.add(put[i], p);
    }
    res.maxAbsError = acc.stats().maxAbs;
    res.rmse = acc.stats().rmse;
    return res;
}

} // namespace

OptionPrices
priceReference(const OptionBatch& batch)
{
    OptionPrices out;
    out.call.resize(batch.size());
    out.put.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        double c, p;
        priceOneReference(batch, i, c, p);
        out.call[i] = static_cast<float>(c);
        out.put[i] = static_cast<float>(p);
    }
    return out;
}

WorkloadResult
runBlackscholes(BsVariant variant, const WorkloadConfig& cfg)
{
    if (variant == BsVariant::CpuSingle || variant == BsVariant::CpuMulti)
        return runCpu(variant, cfg);
    return runPim(variant, cfg);
}

std::vector<WorkloadResult>
runBlackscholesAll(const WorkloadConfig& cfg)
{
    std::vector<WorkloadResult> rows;
    for (BsVariant v :
         {BsVariant::CpuSingle, BsVariant::CpuMulti, BsVariant::PimPoly,
          BsVariant::PimMLut, BsVariant::PimLLut,
          BsVariant::PimFixedLLut}) {
        rows.push_back(runBlackscholes(v, cfg));
    }
    return rows;
}

} // namespace work
} // namespace tpl
