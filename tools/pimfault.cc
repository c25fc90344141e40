/**
 * @file
 * pimfault: replay a FaultPlan file against one request served
 * through the serve pipeline on a multi-DPU system
 * (transpim::runBatchedThroughput) and print the blast radius: which
 * cores failed, how many elements were re-sharded onto survivors in
 * retry waves, what the transfer retries cost, and whether the
 * degraded result still meets the analytic error bound. Each DPU's
 * slice holds ceil(elements / dpus) elements, so a run in which no
 * fault fires is one wave over every core.
 *
 *   pimfault --plan scenario.plan [workload options]
 *   pimfault --demo > scenario.plan        # built-in demo scenario
 *   pimfault --print --plan scenario.plan  # parse + echo canonical
 *
 * Options:
 *   --plan PATH       fault plan file to replay (see --demo for the
 *                     text format)
 *   --demo            print a built-in demo plan to stdout and exit
 *   --print           parse the plan, echo its canonical text, exit
 *   --seed N          override the plan's seed
 *   --function NAME   sin, cos, tanh, exp, log, ... (default sin)
 *   --method NAME     llut, mlut, cordic, ... (default llut)
 *   --elements N      input elements (default 4096)
 *   --dpus N          simulated DPUs, at least 1 (default 16)
 *   --tasklets N      tasklets per DPU, 1..24 (default 8)
 *   --log2-entries N  LUT entry budget (default 10)
 *   --iterations N    CORDIC iterations (default 24)
 *   --metrics PATH    dump the metrics registry (fault/... counters)
 *
 * Exit status: 0 when the run completed and the degraded result is
 * within the error-model bound, 1 when it is degraded beyond the
 * bound / incomplete / infeasible (including a per-DPU slice too
 * large for MRAM), 2 on usage or plan-parse errors.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "pimsim/cli.h"
#include "pimsim/fault/fault.h"
#include "pimsim/obs/metrics.h"
#include "transpim/harness.h"
#include "transpim/trace.h"

namespace {

using namespace tpl;
using namespace tpl::transpim;

void
usage()
{
    std::cerr
        << "usage: pimfault --plan PATH [--print] [--seed N]\n"
           "                [--function NAME] [--method NAME]"
           " [--elements N]\n"
           "                [--dpus N] [--tasklets N]"
           " [--log2-entries N]\n"
           "                [--iterations N] [--metrics PATH]\n"
           "       pimfault --demo\n";
}

/** A recoverable-by-construction scenario: one dead core, one slow
 * core, rare DMA and transfer timeouts. No silent corruption, so the
 * replayed run must complete within the error bound (exit 0). */
const char* kDemoPlan =
    "# pimfault demo scenario: replay with\n"
    "#   pimfault --plan <this file>\n"
    "seed 7\n"
    "fault kind=dpu-hard-fail dpu=2 prob=1\n"
    "fault kind=dpu-straggler dpu=5 prob=1 slowdown=3\n"
    "fault kind=dma-timeout prob=0.001 stall=2000\n"
    "fault kind=transfer-timeout prob=0.02\n";

} // namespace

int
main(int argc, char** argv)
{
    TraceRequest req;
    req.spec.log2Entries = 10;
    req.elements = 4096;
    BatchedOptions opts;
    opts.dpus = 16;
    opts.tasklets = 8;
    opts.requests = 1;
    std::string planPath;
    std::string metricsPath;
    bool printOnly = false;
    bool demo = false;
    bool seedOverride = false;
    uint32_t seedValue = 0;

    cli::Flags flags("pimfault", argc, argv, usage);
    while (flags.next()) {
        const std::string& arg = flags.arg();
        if (arg == "--plan") {
            planPath = flags.value();
        } else if (arg == "--demo") {
            demo = true;
        } else if (arg == "--print") {
            printOnly = true;
        } else if (arg == "--seed") {
            flags.u32(seedValue);
            seedOverride = true;
        } else if (arg == "--function" || arg == "--method" ||
                   arg == "--elements" || arg == "--log2-entries" ||
                   arg == "--iterations") {
            std::string error;
            if (!applyRequestKey(std::string_view(arg).substr(2),
                                 flags.value(), req, error))
                flags.fail(error);
        } else if (arg == "--dpus") {
            flags.u32(opts.dpus);
            if (opts.dpus == 0)
                flags.fail("bad --dpus '0' (want at least 1)");
        } else if (arg == "--tasklets") {
            flags.parse(opts.tasklets, cli::parseTasklets);
        } else if (arg == "--metrics") {
            metricsPath = flags.value();
        } else {
            flags.unknown();
        }
    }

    if (demo) {
        std::cout << kDemoPlan;
        return 0;
    }
    if (planPath.empty()) {
        usage();
        return 2;
    }

    sim::fault::FaultPlan plan;
    std::string error;
    if (!readPlanFile(planPath, plan, error)) {
        std::cerr << "pimfault: " << error << "\n";
        return 2;
    }
    if (seedOverride)
        plan.seed = seedValue;

    if (printOnly) {
        std::cout << plan.toText();
        return 0;
    }

    if (!FunctionEvaluator::supports(req.function, req.spec)) {
        std::cerr << "pimfault: unsupported combination "
                  << functionName(req.function) << " / "
                  << methodLabel(req.spec) << "\n";
        return 1;
    }

    obs::Registry& reg = obs::Registry::global();
    reg.setEnabled(true);
    opts.plan = plan;
    opts.elementsPerRequest = req.elements;
    opts.perDpuElements = static_cast<uint32_t>(std::max<uint64_t>(
        1, (static_cast<uint64_t>(req.elements) + opts.dpus - 1) /
               opts.dpus));
    BatchedResult res =
        runBatchedThroughput(req.function, req.spec, opts);
    if (!res.feasible) {
        std::cerr << "pimfault: configuration infeasible (tables or"
                     " the per-DPU slice do not fit the PIM core)\n";
        return 1;
    }
    const sim::serve::ServeReport& run = res.report;

    std::cout << "== pimfault: " << functionName(req.function) << " / "
              << methodLabel(req.spec) << "\n";
    std::cout << "   plan " << planPath << " (seed " << plan.seed
              << ", " << plan.faults.size() << " fault spec"
              << (plan.faults.size() == 1 ? "" : "s") << "), "
              << req.elements << " elements over " << opts.dpus
              << " DPUs\n\n";

    std::cout << "-- blast radius\n";
    std::printf("   waves               %10llu\n",
                static_cast<unsigned long long>(run.waves));
    std::printf("   failed DPUs         %10zu of %u  [",
                run.failedDpus.size(), opts.dpus);
    for (size_t i = 0; i < run.failedDpus.size(); ++i)
        std::printf("%s%u", i ? " " : "", run.failedDpus[i]);
    std::printf("]\n");
    std::printf("   healthy after run   %10u\n", res.healthyDpus);
    std::printf("   resharded elements  %10llu\n",
                static_cast<unsigned long long>(run.reshardedElements));
    std::printf("   transfer retries    %10llu\n",
                static_cast<unsigned long long>(
                    reg.counter("fault/transfer/retries").value()));
    std::printf("   transfer failures   %10llu\n",
                static_cast<unsigned long long>(
                    reg.counter("fault/transfer/failures").value()));
    std::printf("   modeled seconds     %13.6f\n", run.modeledSeconds);

    std::cout << "\n-- degraded result\n";
    std::printf("   complete            %10s\n",
                run.complete ? "yes" : "NO");
    std::printf("   RMSE                %13.3e (bound %.3e x %.0f)\n",
                res.error.rmse, res.predictedRmse, kErrorBoundFactor);
    std::printf("   max error           %13.3e\n", res.error.maxAbs);
    std::printf("   within error bound  %10s\n",
                res.withinErrorBound ? "yes" : "NO");

    if (!metricsPath.empty()) {
        if (!reg.writeJson(metricsPath)) {
            std::cerr << "pimfault: cannot write '" << metricsPath
                      << "'\n";
            return 2;
        }
        std::cout << "\nwrote " << metricsPath << "\n";
    }
    return res.withinErrorBound ? 0 : 1;
}
