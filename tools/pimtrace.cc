/**
 * @file
 * pimtrace: run one (function, method) evaluator configuration on the
 * simulator with the obs layer armed and emit
 *
 *   - a Chrome trace-event JSON (Perfetto / chrome://tracing),
 *   - a metrics-registry JSON dump, and
 *   - a human-readable text profile on stdout: top-N cost centers by
 *     instruction class, per-tasklet utilization, and a DMA bandwidth
 *     summary.
 *
 *   pimtrace [options]
 *
 * Options:
 *   --function NAME   sin, cos, tanh, exp, log, sqrt, gelu, ... (default sin)
 *   --method NAME     llut, mlut, dlut, dllut, llut-fixed, cordic,
 *                     cordic-fixed, cordic-lut, poly (default llut)
 *   --elements N      input elements (default 16384)
 *   --tasklets N      tasklets, 1..24 (default 16)
 *   --log2-entries N  LUT entry budget (default 12)
 *   --iterations N    CORDIC iterations (default 24)
 *   --placement P     wram | mram (default wram)
 *   --no-interp       disable LUT interpolation
 *   --trace PATH      Chrome trace output (default pimtrace.trace.json,
 *                     "" disables)
 *   --metrics PATH    metrics JSON output (default pimtrace.metrics.json,
 *                     "" disables)
 *   --top N           cost centers to print (default all)
 *   --quantiles       print p50/p90/p99 for every histogram in the
 *                     metrics registry (deterministic log-linear
 *                     quantiles, relative error <= 2^-sub_bucket_bits)
 *
 * Exit status: 0 on success, 1 when the configuration is infeasible
 * (tables do not fit), 2 on usage errors.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "pimsim/cli.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"
#include "transpim/harness.h"
#include "transpim/trace.h"

namespace {

using namespace tpl;
using namespace tpl::transpim;

void
usage()
{
    std::cerr
        << "usage: pimtrace [--function NAME] [--method NAME]\n"
           "                [--elements N] [--tasklets N]"
           " [--log2-entries N]\n"
           "                [--iterations N] [--placement wram|mram]"
           " [--no-interp]\n"
           "                [--trace PATH] [--metrics PATH] [--top N]"
           " [--quantiles]\n";
}

std::string
percent(uint64_t part, uint64_t whole)
{
    char buf[16];
    double pct = whole ? 100.0 * static_cast<double>(part) /
                             static_cast<double>(whole)
                       : 0.0;
    std::snprintf(buf, sizeof buf, "%5.1f%%", pct);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    MicrobenchOptions opts;
    TraceRequest req;
    req.elements = opts.elements;
    std::string tracePath = "pimtrace.trace.json";
    std::string metricsPath = "pimtrace.metrics.json";
    uint32_t topN = UINT32_MAX;
    bool quantiles = false;

    cli::Flags flags("pimtrace", argc, argv, usage);
    while (flags.next()) {
        const std::string& arg = flags.arg();
        if (arg == "--function" || arg == "--method" ||
            arg == "--elements" || arg == "--log2-entries" ||
            arg == "--iterations" || arg == "--placement") {
            std::string error;
            if (!applyRequestKey(std::string_view(arg).substr(2),
                                 flags.value(), req, error))
                flags.fail(error);
        } else if (arg == "--tasklets") {
            flags.parse(opts.tasklets, cli::parseTasklets);
        } else if (arg == "--no-interp") {
            req.spec.interpolated = false;
        } else if (arg == "--trace") {
            tracePath = flags.value();
        } else if (arg == "--metrics") {
            metricsPath = flags.value();
        } else if (arg == "--top") {
            flags.u32(topN);
        } else if (arg == "--quantiles") {
            quantiles = true;
        } else {
            flags.unknown();
        }
    }
    const Function function = req.function;
    const MethodSpec& spec = req.spec;
    opts.elements = req.elements;

    if (!FunctionEvaluator::supports(function, spec)) {
        std::cerr << "pimtrace: unsupported combination "
                  << functionName(function) << " / "
                  << methodLabel(spec) << "\n";
        return 1;
    }

    obs::Tracer::global().setEnabled(true);
    obs::Registry::global().setEnabled(true);

    MicrobenchResult res = runMicrobench(function, spec, opts);
    if (!res.feasible) {
        std::cerr << "pimtrace: configuration infeasible (tables do"
                     " not fit the PIM core)\n";
        return 1;
    }

    const sim::LaunchStats& launch = res.launch;
    const sim::CostModel model; // defaults match the harness's core

    std::cout << "== pimtrace: " << functionName(function) << " / "
              << methodLabel(spec) << "\n";
    std::cout << "   elements " << res.elements << ", tasklets "
              << res.tasklets << ", " << res.cyclesPerElement
              << " cycles/element, RMSE " << res.error.rmse << "\n\n";

    // ---- Top cost centers: the exact cycle partition. -------------
    struct CostCenter
    {
        std::string name;
        uint64_t cycles;
    };
    std::vector<CostCenter> centers;
    for (int c = 0; c < numInstrClasses; ++c)
        if (launch.classInstructions[c])
            centers.push_back(
                {instrClassName(static_cast<InstrClass>(c)),
                 launch.classInstructions[c]});
    if (launch.stallCycles)
        centers.push_back({"stall (latency/DMA bound)",
                           launch.stallCycles});
    std::sort(centers.begin(), centers.end(),
              [](const CostCenter& a, const CostCenter& b) {
                  return a.cycles > b.cycles;
              });
    std::cout << "-- cost centers (" << launch.cycles
              << " modeled cycles)\n";
    uint32_t shown = 0;
    for (const CostCenter& cc : centers) {
        if (shown++ >= topN)
            break;
        std::printf("   %-26s %12llu  %s\n", cc.name.c_str(),
                    static_cast<unsigned long long>(cc.cycles),
                    percent(cc.cycles, launch.cycles).c_str());
    }

    // ---- High-level operation mix. --------------------------------
    std::cout << "\n-- operation mix\n";
    for (int o = 0; o < numOpClasses; ++o)
        if (launch.opCounts[o])
            std::printf("   %-26s %12llu\n",
                        opClassSlug(static_cast<OpClass>(o)),
                        static_cast<unsigned long long>(
                            launch.opCounts[o]));

    // ---- Per-tasklet utilization. ---------------------------------
    uint64_t maxInstr = 0;
    for (const auto& ts : launch.perTasklet)
        maxInstr = std::max(maxInstr, ts.instructions);
    std::cout << "\n-- per-tasklet utilization (vs busiest tasklet)\n";
    for (size_t t = 0; t < launch.perTasklet.size(); ++t) {
        const auto& ts = launch.perTasklet[t];
        std::printf("   tasklet %2zu  %12llu instr  %10llu dma-stall"
                    "  %s\n",
                    t,
                    static_cast<unsigned long long>(ts.instructions),
                    static_cast<unsigned long long>(
                        ts.dmaStallCycles),
                    percent(ts.instructions, maxInstr).c_str());
    }

    // ---- DMA bandwidth summary. -----------------------------------
    std::cout << "\n-- MRAM<->WRAM DMA\n";
    std::printf("   bytes moved       %12llu\n",
                static_cast<unsigned long long>(launch.dmaBytes));
    std::printf("   engine cycles     %12llu  (%s of total)\n",
                static_cast<unsigned long long>(
                    launch.dmaEngineCycles),
                percent(launch.dmaEngineCycles, launch.cycles)
                    .c_str());
    if (launch.dmaEngineCycles) {
        double bytesPerCycle =
            static_cast<double>(launch.dmaBytes) /
            static_cast<double>(launch.dmaEngineCycles);
        std::printf("   achieved          %12.3f bytes/cycle"
                    "  (%.2f GB/s at %.0f MHz)\n",
                    bytesPerCycle,
                    bytesPerCycle * model.frequencyHz * 1e-9,
                    model.frequencyHz * 1e-6);
    }
    std::printf("   table memory      %12u bytes\n", res.memoryBytes);
    std::printf("   setup             %12.6f s host gen"
                " + %.6f s transfer\n",
                res.hostGenSeconds, res.transferSeconds);

    // ---- Registry histogram quantiles. ----------------------------
    if (quantiles) {
        const obs::Registry& reg = obs::Registry::global();
        std::vector<std::string> names = reg.histogramNames();
        std::cout << "\n-- histogram quantiles";
        if (names.empty()) {
            std::cout << " (none recorded)\n";
        } else {
            // All current registry histograms share the default
            // resolution; the bound is per-histogram regardless.
            std::cout << "\n";
            for (const std::string& name : names) {
                const obs::Histogram* h = reg.findHistogram(name);
                if (!h || h->count() == 0)
                    continue;
                std::printf("   %-32s n=%-8llu p50=%-10llu"
                            " p90=%-10llu p99=%-10llu max=%llu\n",
                            name.c_str(),
                            static_cast<unsigned long long>(
                                h->count()),
                            static_cast<unsigned long long>(
                                h->quantile(0.50)),
                            static_cast<unsigned long long>(
                                h->quantile(0.90)),
                            static_cast<unsigned long long>(
                                h->quantile(0.99)),
                            static_cast<unsigned long long>(
                                h->maxValue()));
                std::printf("   %-32s relative error <= 2^-%u\n", "",
                            h->subBucketBits());
            }
        }
    }

    // ---- File outputs. --------------------------------------------
    if (!tracePath.empty()) {
        if (!obs::Tracer::global().writeChromeJson(tracePath)) {
            std::cerr << "pimtrace: cannot write '" << tracePath
                      << "'\n";
            return 2;
        }
        std::cout << "\nwrote " << tracePath
                  << " (load in https://ui.perfetto.dev or"
                     " chrome://tracing)\n";
    }
    if (!metricsPath.empty()) {
        if (!obs::Registry::global().writeJson(metricsPath)) {
            std::cerr << "pimtrace: cannot write '" << metricsPath
                      << "'\n";
            return 2;
        }
        std::cout << "wrote " << metricsPath << "\n";
    }
    return 0;
}
