/**
 * @file
 * Microbenchmark harness implementation.
 */

#include "transpim/harness.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "common/rng.h"
#include "pimsim/obs/trace.h"
#include "transpim/error_model.h"
#include "transpim/trace.h"

namespace tpl {
namespace transpim {

std::vector<float>
referenceOutputs(Function f, const std::vector<float>& inputs)
{
    std::vector<float> out(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i)
        out[i] = static_cast<float>(
            referenceValue(f, static_cast<double>(inputs[i])));
    return out;
}

ErrorStats
evaluateAccuracy(const FunctionEvaluator& eval,
                 const std::vector<float>& inputs)
{
    ErrorAccumulator acc;
    for (float x : inputs) {
        float y = eval.eval(x, nullptr);
        float ref = static_cast<float>(
            referenceValue(eval.function(), static_cast<double>(x)));
        acc.add(y, ref);
    }
    return acc.stats();
}

MicrobenchResult
runMicrobench(Function f, const MethodSpec& spec,
              const MicrobenchOptions& opts)
{
    MicrobenchResult res;
    res.function = f;
    res.spec = spec;
    res.elements = opts.elements;
    res.tasklets = opts.tasklets;

    obs::TraceSpan benchSpan(
        "microbench " + std::string(functionName(f)) + " / " +
            methodLabel(spec),
        "host",
        obs::argsObject(
            {obs::argKv("elements",
                        static_cast<uint64_t>(opts.elements)),
             obs::argKv("tasklets",
                        static_cast<uint64_t>(opts.tasklets))}));

    Domain dom = functionDomain(f);
    std::vector<float> inputs =
        uniformFloats(opts.elements, static_cast<float>(dom.lo),
                      static_cast<float>(dom.hi), opts.seed);

    FunctionEvaluator eval;
    try {
        eval = FunctionEvaluator::create(f, spec);
    } catch (const UnsupportedCombination&) {
        res.feasible = false;
        return res;
    }

    sim::DpuCore dpu;
    try {
        obs::TraceSpan attachSpan("attach tables", "host");
        eval.attach(dpu);
    } catch (const std::bad_alloc&) {
        res.feasible = false;
        return res;
    }

    // Input and output arrays in the DRAM bank.
    uint32_t bytes = opts.elements * sizeof(float);
    uint32_t inAddr = dpu.mramAlloc(bytes);
    uint32_t outAddr = dpu.mramAlloc(bytes);
    dpu.hostWriteMram(inAddr, inputs.data(), bytes);

    // The paper's microbenchmark kernel: each tasklet streams 256-
    // element chunks from MRAM through a WRAM buffer and evaluates
    // every element with evalBatch.
    sim::ShardTask task{.inAddr = inAddr,
                        .outAddr = outAddr,
                        .elements = opts.elements};
    sim::LaunchStats stats = dpu.launch(
        opts.tasklets, makeStreamingKernel(eval, task, 256));

    std::vector<float> outputs(opts.elements);
    dpu.hostReadMram(outAddr, outputs.data(), bytes);

    ErrorAccumulator acc;
    {
        obs::TraceSpan accuracySpan("accuracy readback", "host");
        for (uint32_t i = 0; i < opts.elements; ++i) {
            float ref = static_cast<float>(
                referenceValue(f, static_cast<double>(inputs[i])));
            acc.add(outputs[i], ref);
        }
    }

    res.error = acc.stats();
    res.launch = stats;
    res.cyclesPerElement =
        static_cast<double>(stats.cycles) / opts.elements;
    res.instructionsPerElement =
        static_cast<double>(stats.totalInstructions) / opts.elements;
    res.memoryBytes = eval.memoryBytes();
    res.hostGenSeconds = eval.setupSeconds();

    // Table transfer: a single-DPU setup streams the tables serially
    // (they are one buffer, not a parallel per-DPU transfer).
    res.transferSeconds =
        sim::CostModel{}.serialTransferSeconds(eval.memoryBytes());
    res.setupSeconds = res.hostGenSeconds + res.transferSeconds;
    return res;
}

BatchedResult
runBatchedThroughput(Function f, const MethodSpec& spec,
                     const BatchedOptions& opts)
{
    BatchedResult res;

    obs::TraceSpan benchSpan(
        "batched " + std::string(functionName(f)) + " / " +
            methodLabel(spec),
        "host",
        obs::argsObject(
            {obs::argKv("requests",
                        static_cast<uint64_t>(opts.requests)),
             obs::argKv("dpus", static_cast<uint64_t>(opts.dpus))}));

    Domain dom = functionDomain(f);
    const uint64_t total = static_cast<uint64_t>(opts.requests) *
                           opts.elementsPerRequest;
    std::vector<float> inputs =
        uniformFloats(total, static_cast<float>(dom.lo),
                      static_cast<float>(dom.hi), opts.seed);

    std::vector<float> outputs(total, 0.0f);
    ReplayOptions ropts;
    ropts.dpus = opts.dpus;
    ropts.plan = opts.plan;
    ropts.simThreads = opts.simThreads;
    ropts.tasklets = opts.tasklets;
    ropts.perDpuElements = opts.perDpuElements;
    ReplayReport replay = replayTrace(
        std::vector<TraceRequest>(
            opts.requests, TraceRequest{f, spec, opts.elementsPerRequest}),
        inputs, outputs, ropts);
    if (!replay.error.empty()) {
        res.feasible = false;
        return res;
    }
    res.report = std::move(replay.report);
    res.healthyDpus = replay.healthyDpus;
    if (res.report.elements > 0)
        res.cyclesPerElement =
            static_cast<double>(res.report.computeCycles) /
            static_cast<double>(res.report.elements);

    res.feasible = res.report.infeasibleElements == 0;
    if (!res.feasible)
        return res;
    if (total > 0) {
        std::vector<float> expect(total);
        FunctionEvaluator::create(f, spec).evalBatch(inputs, expect);
        res.outputsMatch = std::memcmp(expect.data(), outputs.data(),
                                       total * sizeof(float)) == 0;
    }
    ErrorAccumulator acc;
    for (uint64_t i = 0; i < total; ++i) {
        float ref = static_cast<float>(
            referenceValue(f, static_cast<double>(inputs[i])));
        acc.add(outputs[i], ref);
    }
    res.error = acc.stats();
    res.predictedRmse = predictRmse(f, spec);
    double bound = std::max(res.predictedRmse * kErrorBoundFactor, 1e-6);
    res.withinErrorBound =
        res.report.complete && res.error.rmse <= bound;
    return res;
}

} // namespace transpim
} // namespace tpl
