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
};

/**
 * Domain-tuned Q3.28 tables: the generic log/sqrt domains do not fit
 * fixed point, the Blackscholes parameter ranges do.
 */
struct FixedLLutTables
{
    transpim::LLutFixed log, sqrt, exp, cndf;

    explicit FixedLLutTables(uint32_t n)
        : log([](double x) { return std::log(x); }, 0.70, 1.35, n, true,
              Placement::Wram),
          sqrt([](double x) { return std::sqrt(x); }, 0.05, 2.05, n, true,
               Placement::Wram),
          exp([](double x) { return std::exp(x); }, -0.15, 0.01, n, true,
              Placement::Wram),
          cndf([](double x) { return cndfDouble(x); }, -7.99, 7.99, n,
               true, Placement::Wram)
    {}

    BsFunctions
    functions() const
    {
        return {
            [this](float x, InstrSink* s) { return log.eval(x, s); },
            [this](float x, InstrSink* s) { return sqrt.eval(x, s); },
            [this](float x, InstrSink* s) { return exp.eval(x, s); },
            [this](float x, InstrSink* s) {
                // Clamp into the table domain: CNDF saturates outside.
                chargeInstr(s, 2);
                return cndf.eval(std::clamp(x, -7.9f, 7.9f), s);
            }};
    }
};

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
runCpu(Variant v, const WorkloadConfig& cfg)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);
    OptionBatch batch = generateOptions(sample, cfg.seed);
    OptionPrices out;
    out.call.resize(sample);
    out.put.resize(sample);
    return cpuRow(
        "Blackscholes", v, cfg,
        [&](uint64_t beg, uint64_t end) {
            for (uint64_t i = beg; i < end; ++i)
                priceOneCpu(batch, i, out.call[i], out.put[i]);
        },
        [&](ErrorAccumulator& acc) {
            for (uint64_t i = 0; i < std::min<uint64_t>(sample, 10000);
                 ++i) {
                double c, p;
                priceOneReference(batch, i, c, p);
                acc.add(out.call[i], c);
                acc.add(out.put[i], p);
            }
        });
}

WorkloadResult
runPim(PimRun& run, const BsFunctions& fn, const WorkloadConfig& cfg)
{
    OptionBatch batch = generateOptions(run.simulatedElements(), cfg.seed);
    Array in[] = {run.stream(1, batch.spot), run.stream(1, batch.strike),
                  run.stream(1, batch.rate), run.stream(1, batch.vol),
                  run.stream(1, batch.expiry)};
    Array call = run.stream(1);
    Array put = run.stream(1);

    run.pass({.chunk = 128,
              .reads = {in[0], in[1], in[2], in[3], in[4]},
              .writes = {call, put},
              .element = [&](Tasklet& t, uint32_t i) {
                  t.ctx.charge(6); // loop + WRAM traffic
                  priceOnePim(fn, t.in[0][i], t.in[1][i], t.in[2][i],
                              t.in[3][i], t.in[4][i], &t.ctx,
                              t.out[0][i], t.out[1][i]);
              }});

    // Accuracy from the last simulated DPU's actual outputs.
    uint32_t last = run.numDpus() - 1;
    std::vector<float> calls = run.read(call, last);
    std::vector<float> puts = run.read(put, last);
    uint64_t off = uint64_t{last} * run.perDpu();
    ErrorAccumulator acc;
    for (uint32_t i = 0; i < run.perDpu(); ++i) {
        double c, p;
        priceOneReference(batch, off + i, c, p);
        acc.add(calls[i], c);
        acc.add(puts[i], p);
    }
    return run.row({cfg.totalElements * 5 * sizeof(float)},
                   {cfg.totalElements * 2 * sizeof(float)}, acc);
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
runBlackscholes(Variant variant, const WorkloadConfig& cfg)
{
    if (isCpu(variant))
        return runCpu(variant, cfg);
    if (variant == Variant::PimFixedLLut) {
        auto start = std::chrono::steady_clock::now();
        FixedLLutTables tables(1u << cfg.log2Entries);
        auto end = std::chrono::steady_clock::now();
        PimRun run("Blackscholes", variant, cfg,
                   std::chrono::duration<double>(end - start).count(),
                   [&](sim::DpuCore& c) {
                       tables.log.attach(c);
                       tables.sqrt.attach(c);
                       tables.exp.attach(c);
                       tables.cndf.attach(c);
                   });
        return runPim(run, tables.functions(), cfg);
    }
    std::vector<FunctionEvaluator> evals = makeEvaluators(
        variant, cfg,
        {Function::Log, Function::Sqrt, Function::Exp, Function::Cndf});
    PimRun run("Blackscholes", variant, cfg, evals);
    auto eval = [](const FunctionEvaluator& e) {
        return [&e](float x, InstrSink* s) { return e.eval(x, s); };
    };
    return runPim(run,
                  {eval(evals[0]), eval(evals[1]), eval(evals[2]),
                   eval(evals[3])},
                  cfg);
}

} // namespace work
} // namespace tpl
