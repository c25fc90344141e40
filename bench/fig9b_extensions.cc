/**
 * @file
 * Extension workloads beyond the paper's Figure 9: logistic-regression
 * inference (the paper's own example application for sigmoid) and
 * Phong ray shading (ray tracing is cited in the paper's introduction
 * as a transcendental-heavy application).
 *
 * Same methodology as fig9_workloads: simulated per-core element
 * shares projected to the 2545-DPU machine, measured CPU baselines.
 */

#include <cstdio>

#include "workloads/logistic.h"
#include "workloads/raytrace.h"

using namespace tpl::work;

int
main()
{
    std::printf("=== Extension workloads (beyond the paper's "
                "Figure 9) ===\n\n");

    LogisticConfig logCfg;
    logCfg.totalElements = 10'000'000;
    logCfg.elementsPerSimDpu = 1024;
    logCfg.simulatedDpus = 2;
    logCfg.features = 16;
    logCfg.cpuSampleElements = 500'000;
    std::printf("--- Logistic regression (%llu rows, %u features) "
                "---\n",
                (unsigned long long)logCfg.totalElements,
                logCfg.features);
    printRows(runAll(kLogisticRows, logCfg, runLogistic));
    std::printf("\n");

    WorkloadConfig rayCfg;
    rayCfg.totalElements = 10'000'000;
    rayCfg.elementsPerSimDpu = 2048;
    rayCfg.simulatedDpus = 2;
    rayCfg.cpuSampleElements = 500'000;
    std::printf("--- Ray shading (%llu rays; rsqrt + sqrt + log2 + "
                "exp2 per hit) ---\n",
                (unsigned long long)rayCfg.totalElements);
    printRows(runAll(kRaytraceRows, rayCfg, runRaytrace));
    std::printf("\n");
    return 0;
}
