/**
 * @file
 * Ablation: transcendental share vs. surrounding compute (logistic
 * regression, feature-dimension sweep).
 *
 * The Sigmoid workload is pure transcendental, so method choice sets
 * the whole kernel time. Real models wrap the activation in MACs; as
 * the feature dimension D grows, the dot product (D emulated float
 * multiply-adds) dominates and the gap between the polynomial baseline
 * and the LUT methods shrinks. This bench quantifies where method
 * choice stops mattering - the flip side of the paper's Figure 9.
 */

#include <cstdio>

#include "workloads/logistic.h"

int
main()
{
    using namespace tpl::work;

    std::printf("=== Ablation: logistic regression, PIM kernel "
                "seconds vs feature dimension ===\n");
    std::printf("%-10s %14s %14s %14s %12s\n", "features", "poly_s",
                "llut_s", "dllut_s", "poly/llut");

    for (uint32_t features : {2u, 8u, 32u, 128u}) {
        LogisticConfig cfg;
        cfg.totalElements = 1'000'000;
        cfg.elementsPerSimDpu = 512;
        cfg.simulatedDpus = 2;
        cfg.features = features;
        cfg.cpuSampleElements = 100'000;

        auto poly = runLogistic(Variant::PimPoly, cfg);
        auto llut = runLogistic(Variant::PimLLut, cfg);
        auto dllut = runLogistic(Variant::PimDlLut, cfg);
        std::printf("%-10u %14.4f %14.4f %14.4f %11.2fx\n", features,
                    poly.pimKernelSeconds, llut.pimKernelSeconds,
                    dllut.pimKernelSeconds,
                    poly.pimKernelSeconds / llut.pimKernelSeconds);
    }

    std::printf("\n# The poly/L-LUT ratio decays toward 1.0 as the "
                "MACs dominate: TransPimLib's benefit\n# is largest "
                "for activation-heavy kernels, exactly the workloads "
                "the paper targets.\n");
    return 0;
}
