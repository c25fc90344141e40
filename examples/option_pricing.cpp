/**
 * @file
 * Option pricing on PIM: the Blackscholes scenario from the paper's
 * introduction (option pricing in the stock market is one of the
 * motivating applications for transcendental functions in PIM).
 *
 * Prices a small option portfolio on the simulated PIM system with
 * every variant - the polynomial PIM baseline and the TransPimLib LUT
 * versions - and reports prices, accuracy against the double-precision
 * oracle, and the modeled full-system execution time.
 *
 * Build & run:
 *   cmake --build build && ./build/examples/option_pricing
 */

#include <cstdio>

#include "workloads/blackscholes.h"

int
main()
{
    using namespace tpl::work;

    WorkloadConfig cfg;
    cfg.totalElements = 1'000'000; // portfolio size of the modeled run
    cfg.elementsPerSimDpu = 1024;  // options actually simulated per DPU
    cfg.simulatedDpus = 2;
    cfg.cpuSampleElements = 200'000;

    // Show a few concrete prices first.
    OptionBatch sample = generateOptions(5, cfg.seed);
    OptionPrices ref = priceReference(sample);
    std::printf("sample portfolio (double-precision reference):\n");
    std::printf("%8s %8s %6s %6s %6s %10s %10s\n", "S", "K", "r", "v",
                "T", "call", "put");
    for (size_t i = 0; i < sample.size(); ++i) {
        std::printf("%8.2f %8.2f %6.3f %6.3f %6.3f %10.4f %10.4f\n",
                    sample.spot[i], sample.strike[i], sample.rate[i],
                    sample.vol[i], sample.expiry[i], ref.call[i],
                    ref.put[i]);
    }

    std::printf("\npricing %llu options on the modeled %u-DPU "
                "system:\n",
                (unsigned long long)cfg.totalElements, cfg.systemDpus);
    constexpr Variant rows[] = {Variant::CpuSingle, Variant::PimPoly,
                                Variant::PimMLut, Variant::PimLLut,
                                Variant::PimFixedLLut};
    printRows(runAll(rows, cfg, runBlackscholes));

    std::printf("\nTakeaway: the LUT-based TransPimLib versions cut "
                "the PIM kernel time several-fold\nversus the "
                "polynomial baseline; the fixed-point L-LUT variant "
                "is the fastest.\n");
    return 0;
}
