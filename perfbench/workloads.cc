/**
 * @file
 * Trace generators of the benchmark workloads.
 */

#include "workloads.h"

#include "common/rng.h"
#include "transpim/reference.h"

namespace perfbench {

namespace {

using tpl::SplitMix64;
using tpl::transpim::Function;
using tpl::transpim::Method;
using tpl::transpim::MethodSpec;
using tpl::transpim::Placement;

// Trace lengths. Each replay must carry >= 1000 requests, so that at
// least ten lie beyond the p99 latency, and should take about a
// second of host time, so a run of a few seconds holds several.
constexpr uint32_t kFleetRequests = 50000;
constexpr uint32_t kFlatRequests = 2000;
constexpr uint32_t kTenantRequests = 100000;

/** Independent streams for the trace shape and the input values. */
constexpr uint64_t kShapeSalt = 0x5eed0001;
constexpr uint64_t kInputSalt = 0x5eed0002;

MethodSpec
spec(Method method, Placement placement = Placement::Wram,
     uint32_t log2Entries = 12)
{
    MethodSpec s;
    s.method = method;
    s.placement = placement;
    s.log2Entries = log2Entries;
    return s;
}

/** The paper-scale fleet serving tiny requests over four L-LUT tables
 * in eight same-table phases (two passes over the tables, so the
 * second pass hits the table cache), like `pimserve --demo-trace`. */
Workload
fleetSmall(uint64_t seed)
{
    Workload w;
    w.name = "fleet_small";
    w.topology = tpl::sim::Topology{20, 2, 64};
    w.dpus = w.topology->numDpus();
    const Function tables[4] = {Function::Sin, Function::Cos,
                                Function::Exp, Function::Sigmoid};
    SplitMix64 rng(seed ^ kShapeSalt);
    const uint32_t phases = 8;
    for (uint32_t i = 0; i < kFleetRequests; ++i) {
        TraceRequest r;
        r.function = tables[(uint64_t{i} * phases / kFleetRequests) % 4];
        r.spec = spec(Method::LLut);
        r.elements = 8 + static_cast<uint32_t>(rng.next() % 17);
        w.trace.push_back(r);
    }
    return w;
}

/** One flat 64-DPU rank serving requests of a few thousand elements
 * that rotate over ten configurations spanning the paper's method
 * matrix. Every table of every configuration stays bound to each
 * core for the whole run, so the WRAM-placed ones must fit 64 KB
 * together; the larger tables live in MRAM. */
Workload
flatMethodMix(uint64_t seed)
{
    Workload w;
    w.name = "flat_method_mix";
    struct Config
    {
        Function function;
        MethodSpec spec;
    };
    const Config configs[] = {
        {Function::Sin, spec(Method::Cordic)},
        {Function::Sin, spec(Method::CordicFixed)},
        {Function::Exp, spec(Method::MLut, Placement::Wram, 10)},
        {Function::Sin, spec(Method::LLut, Placement::Wram, 12)},
        {Function::Log, spec(Method::LLut, Placement::Mram, 12)},
        {Function::Tanh, spec(Method::DlLut, Placement::Mram)},
        {Function::Cndf, spec(Method::Poly)},
        {Function::Sqrt, spec(Method::LLut, Placement::Mram, 10)},
        {Function::Exp, spec(Method::Cordic)},
        {Function::Tanh, spec(Method::LLut, Placement::Wram, 10)},
    };
    const uint32_t numConfigs = sizeof(configs) / sizeof(configs[0]);
    SplitMix64 rng(seed ^ kShapeSalt);
    for (uint32_t i = 0; i < kFlatRequests; ++i) {
        TraceRequest r;
        r.function = configs[i % numConfigs].function;
        r.spec = configs[i % numConfigs].spec;
        r.elements = 3072 + static_cast<uint32_t>(rng.next() % 3072);
        w.trace.push_back(r);
    }
    return w;
}

/** Three tenants interleaved request by request at 4:2:1, as in
 * `pimtune --demo`: a lax and a strict tenant on sin/CORDIC-fixed and
 * a lax tenant on exp/CORDIC, served with the online auto-tuner and
 * the demo SLAs on 64 flat DPUs in small waves. */
Workload
tenantTuning(uint64_t seed)
{
    Workload w;
    w.name = "tenant_tuning";
    w.perDpuElements = 8;
    tpl::sim::serve::TenantSla strict;
    tpl::sim::serve::TenantSla::parse("rmse<8e-8", strict);
    tpl::sim::serve::TenantSla lax;
    tpl::sim::serve::TenantSla::parse("rmse<1e-3", lax);
    w.slas = {{1, strict}, {2, lax}, {3, lax}};
    SplitMix64 rng(seed ^ kShapeSalt);
    for (uint32_t i = 0; i < kTenantRequests; ++i) {
        TraceRequest r;
        const uint32_t slot = i % 7;
        if (slot < 4) {
            r.tenant = 2;
            r.function = Function::Sin;
            r.spec = spec(Method::CordicFixed);
        } else if (slot < 6) {
            r.tenant = 1;
            r.function = Function::Sin;
            r.spec = spec(Method::CordicFixed);
        } else {
            r.tenant = 3;
            r.function = Function::Exp;
            r.spec = spec(Method::Cordic);
        }
        r.elements = 8 + static_cast<uint32_t>(rng.next() % 29);
        w.trace.push_back(r);
    }
    return w;
}

} // namespace

std::optional<Workload>
makeWorkload(const std::string& name, uint64_t seed)
{
    if (name == "fleet_small")
        return fleetSmall(seed);
    if (name == "flat_method_mix")
        return flatMethodMix(seed);
    if (name == "tenant_tuning")
        return tenantTuning(seed);
    return std::nullopt;
}

std::vector<float>
makeInputs(std::span<const TraceRequest> trace, uint64_t seed)
{
    std::vector<float> inputs;
    inputs.reserve(totalElements(trace));
    SplitMix64 rng(seed ^ kInputSalt);
    for (const TraceRequest& r : trace) {
        const tpl::transpim::Domain dom =
            tpl::transpim::functionDomain(r.function);
        for (uint32_t i = 0; i < r.elements; ++i)
            inputs.push_back(rng.nextFloat(static_cast<float>(dom.lo),
                                           static_cast<float>(dom.hi)));
    }
    return inputs;
}

uint64_t
totalElements(std::span<const TraceRequest> trace)
{
    uint64_t n = 0;
    for (const TraceRequest& r : trace)
        n += r.elements;
    return n;
}

} // namespace perfbench
