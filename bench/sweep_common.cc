/**
 * @file
 * Sweep implementation shared by the Figure 5/6/7 benches.
 */

#include "sweep_common.h"

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "pimsim/thread_pool.h"

namespace tpl {
namespace bench {

using transpim::Function;
using transpim::FunctionEvaluator;
using transpim::Method;
using transpim::MethodSpec;
using transpim::MicrobenchOptions;
using transpim::MicrobenchResult;
using transpim::Placement;

uint32_t
benchElements()
{
    if (const char* env = std::getenv("TPL_BENCH_ELEMENTS"))
        return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
    return 4096;
}

namespace {

MicrobenchResult
runPoint(Function f, const MethodSpec& spec, bool simulateCycles)
{
    MicrobenchOptions opts;
    opts.elements = benchElements();
    if (simulateCycles)
        return transpim::runMicrobench(f, spec, opts);

    // Setup/memory/accuracy only: no DPU cycle simulation.
    MicrobenchResult res;
    res.function = f;
    res.spec = spec;
    res.elements = opts.elements;
    try {
        FunctionEvaluator eval = FunctionEvaluator::create(f, spec);
        // Respect the placement's size limit so Figures 6/7 show the
        // same feasibility cutoffs as Figure 5.
        sim::DpuCore dpu;
        eval.attach(dpu);
        auto inputs = uniformFloats(
            opts.elements,
            static_cast<float>(transpim::functionDomain(f).lo),
            static_cast<float>(transpim::functionDomain(f).hi),
            opts.seed);
        res.error = evaluateAccuracy(eval, inputs);
        res.memoryBytes = eval.memoryBytes();
        res.hostGenSeconds = eval.setupSeconds();
        res.transferSeconds =
            sim::CostModel{}.serialTransferSeconds(eval.memoryBytes());
        res.setupSeconds = res.hostGenSeconds + res.transferSeconds;
    } catch (const std::bad_alloc&) {
        res.feasible = false;
    } catch (const transpim::UnsupportedCombination&) {
        res.feasible = false;
    }
    return res;
}

/** One pending point of the sweep matrix (spec + display knob). */
struct SweepEntry
{
    MethodSpec spec;
    std::string knob;
};

void
addLutSeries(std::vector<SweepEntry>& out, Method method,
             bool interpolated, Placement placement,
             const std::vector<uint32_t>& sizes)
{
    for (uint32_t log2n : sizes) {
        SweepEntry e;
        e.spec.method = method;
        e.spec.interpolated = interpolated;
        e.spec.placement = placement;
        e.spec.log2Entries = log2n;
        e.knob = "2^" + std::to_string(log2n);
        out.push_back(std::move(e));
    }
}

void
addCordicSeries(std::vector<SweepEntry>& out, Method method,
                Placement placement)
{
    for (uint32_t iters : {8u, 12u, 16u, 20u, 24u, 28u}) {
        SweepEntry e;
        e.spec.method = method;
        e.spec.placement = placement;
        e.spec.iterations = iters;
        e.spec.gridBits = 8;
        e.knob = std::to_string(iters) + " iters";
        out.push_back(std::move(e));
    }
}

} // namespace

std::vector<SweepPoint>
runMethodSweep(Function f, bool simulateCycles, bool parallelPoints)
{
    // Build the full configuration matrix first, then run every point
    // independently (each owns its evaluator and simulated core) and
    // emit results in matrix order, so the output is identical no
    // matter how many threads executed it.
    std::vector<SweepEntry> entries;
    const std::vector<uint32_t> plainSizes{8, 10, 12, 14, 16, 18, 20};
    const std::vector<uint32_t> interpSizes{6, 8, 10, 12, 14, 16};

    for (Placement pl : {Placement::Wram, Placement::Mram}) {
        addLutSeries(entries, Method::MLut, false, pl, plainSizes);
        addLutSeries(entries, Method::MLut, true, pl, interpSizes);
        addLutSeries(entries, Method::LLut, false, pl, plainSizes);
        addLutSeries(entries, Method::LLut, true, pl, interpSizes);
        addLutSeries(entries, Method::LLutFixed, false, pl, plainSizes);
        addLutSeries(entries, Method::LLutFixed, true, pl, interpSizes);
    }
    addCordicSeries(entries, Method::Cordic, Placement::Wram);
    addCordicSeries(entries, Method::CordicLut, Placement::Wram);

    std::vector<MicrobenchResult> results(entries.size());
    auto runOne = [&](uint64_t i) {
        results[i] = runPoint(f, entries[i].spec, simulateCycles);
    };
    if (parallelPoints) {
        sim::parallelFor(entries.size(), runOne);
    } else {
        for (uint64_t i = 0; i < entries.size(); ++i)
            runOne(i);
    }

    std::vector<SweepPoint> out;
    out.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
        if (!results[i].feasible)
            continue; // table does not fit this placement
        SweepPoint p;
        p.series = methodLabel(entries[i].spec);
        p.knob = entries[i].knob;
        p.result = results[i];
        out.push_back(std::move(p));
    }
    return out;
}

namespace {

/** CSV mode for plotting scripts: TPL_BENCH_CSV=1. */
bool
csvMode()
{
    const char* env = std::getenv("TPL_BENCH_CSV");
    return env && env[0] == '1';
}

} // namespace

void
printHeader(const char* title, const char* valueColumn)
{
    if (csvMode()) {
        std::printf("series,knob,rmse,%s\n", valueColumn);
        return;
    }
    std::printf("# %s\n", title);
    std::printf("%-28s %-12s %12s %16s\n", "series", "knob", "rmse",
                valueColumn);
}

void
printRow(const SweepPoint& p, double value)
{
    if (csvMode()) {
        std::printf("%s,%s,%.6e,%.8g\n", p.series.c_str(),
                    p.knob.c_str(), p.result.error.rmse, value);
        return;
    }
    std::printf("%-28s %-12s %12.3e %16.6g\n", p.series.c_str(),
                p.knob.c_str(), p.result.error.rmse, value);
}

} // namespace bench
} // namespace tpl
