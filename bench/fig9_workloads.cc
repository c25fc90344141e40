/**
 * @file
 * Figure 9: execution time of the three full workloads (Blackscholes,
 * Sigmoid, Softmax) on the modeled 2545-DPU PIM system vs the CPU
 * baselines.
 *
 * Methodology (see EXPERIMENTS.md): PIM variants simulate a few DPUs
 * executing their exact per-core element share and project the slowest
 * core to the full machine; host<->PIM transfers are modeled at the
 * published parallel-transfer bandwidths; CPU baselines run real libm
 * code on this host (subset, scaled), with the 32-thread number
 * modeled from the single-thread measurement when the host lacks the
 * cores.
 */

#include <cstdio>
#include <cstdlib>

#include "workloads/activations.h"
#include "workloads/blackscholes.h"

namespace {

using namespace tpl::work;

double
variantSeconds(const std::vector<WorkloadResult>& rows,
               const std::string& name)
{
    for (const auto& r : rows) {
        if (r.variant == name)
            return r.seconds;
    }
    return 0.0;
}

} // namespace

int
main()
{
    WorkloadConfig cfg;
    if (const char* env = std::getenv("TPL_BENCH_FULL")) {
        (void)env;
        cfg.totalElements = 10'000'000;
        cfg.elementsPerSimDpu = 1u << 12;
        cfg.simulatedDpus = 4;
    } else {
        cfg.totalElements = 10'000'000;
        cfg.elementsPerSimDpu = 2048;
        cfg.simulatedDpus = 2;
        cfg.cpuSampleElements = 1'000'000;
    }

    std::printf("=== Figure 9: full workloads on the modeled %u-DPU "
                "system (%u tasklets/DPU) ===\n\n",
                cfg.systemDpus, cfg.tasklets);

    std::printf("--- Blackscholes (%llu options) ---\n",
                (unsigned long long)cfg.totalElements);
    auto bs = runAll(kBlackscholesRows, cfg, runBlackscholes);
    printRows(bs);

    double bsPoly = variantSeconds(bs, "PIM poly");
    double bsLlut = variantSeconds(bs, "PIM L-LUT interp.");
    double bsFixed = variantSeconds(bs, "PIM fixed L-LUT interp.");
    double bsCpu32 = variantSeconds(bs, "CPU 32T");
    std::printf("\n# poly / L-LUT speedup: %.1fx (paper: 5-10x)\n",
                bsPoly / bsLlut);
    std::printf("# fixed L-LUT vs CPU 32T: %.2fx %s (paper: fixed "
                "L-LUT 62%% faster)\n\n",
                bsCpu32 / bsFixed,
                bsCpu32 > bsFixed ? "faster" : "slower");

    WorkloadConfig actCfg = cfg;
    actCfg.totalElements = 30'000'000;

    std::printf("--- Sigmoid (%llu elements) ---\n",
                (unsigned long long)actCfg.totalElements);
    auto sig = runAll(kActivationRows, actCfg, runSigmoid);
    printRows(sig);
    std::printf("\n# poly / L-LUT speedup: %.2fx (paper: 1.5-1.75x)\n\n",
                variantSeconds(sig, "PIM poly") /
                    variantSeconds(sig, "PIM L-LUT interp."));

    std::printf("--- Softmax (%llu elements) ---\n",
                (unsigned long long)actCfg.totalElements);
    auto soft = runAll(kActivationRows, actCfg, runSoftmax);
    printRows(soft);
    std::printf("\n# poly / L-LUT speedup: %.2fx (paper: 1.5-1.75x)\n",
                variantSeconds(soft, "PIM poly") /
                    variantSeconds(soft, "PIM L-LUT interp."));
    return 0;
}
