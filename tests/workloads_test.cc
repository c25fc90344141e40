/**
 * @file
 * Workload tests: correctness of the Blackscholes / Sigmoid / Softmax
 * kernels across CPU and PIM variants (results vs double oracle,
 * put-call parity, softmax normalization), plus the Figure 9
 * qualitative orderings (LUT variants beat the polynomial PIM
 * baseline).
 */

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "pimsim/cost_model.h"
#include "workloads/activations.h"
#include "workloads/blackscholes.h"
#include "workloads/logistic.h"
#include "workloads/raytrace.h"

namespace tpl {
namespace work {
namespace {

WorkloadConfig
smallConfig()
{
    WorkloadConfig cfg;
    cfg.totalElements = 1'000'000;
    cfg.elementsPerSimDpu = 1024;
    cfg.simulatedDpus = 2;
    cfg.cpuSampleElements = 100'000;
    cfg.log2Entries = 12;
    return cfg;
}

TEST(BlackscholesInputs, DeterministicAndInRange)
{
    OptionBatch a = generateOptions(1000, 7);
    OptionBatch b = generateOptions(1000, 7);
    EXPECT_EQ(a.spot, b.spot);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_GT(a.spot[i], 0.0f);
        EXPECT_GT(a.strike[i], 0.0f);
        EXPECT_GE(a.spot[i] / a.strike[i], 0.75f);
        EXPECT_LE(a.spot[i] / a.strike[i], 1.30f);
        EXPECT_GT(a.vol[i], 0.0f);
        EXPECT_GT(a.expiry[i], 0.0f);
    }
}

TEST(BlackscholesReference, PutCallParity)
{
    OptionBatch batch = generateOptions(2000, 9);
    OptionPrices p = priceReference(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
        double ke = batch.strike[i] *
                    std::exp(-(double)batch.rate[i] * batch.expiry[i]);
        EXPECT_NEAR(p.call[i] - p.put[i], batch.spot[i] - ke,
                    1e-2 * batch.spot[i])
            << i;
        EXPECT_GE(p.call[i], -1e-3);
        EXPECT_GE(p.put[i], -1e-3);
    }
}

class BsVariantTest : public ::testing::TestWithParam<Variant>
{
};

TEST_P(BsVariantTest, AccurateAgainstOracle)
{
    WorkloadConfig cfg = smallConfig();
    WorkloadResult res = runBlackscholes(GetParam(), cfg);
    EXPECT_GT(res.seconds, 0.0);
    EXPECT_EQ(cfg.totalElements, res.elements);
    // Option prices are tens of dollars; all variants should price
    // within cents except the coarser poly/CNDF path.
    EXPECT_LT(res.maxAbsError, 0.25) << res.variant;
    EXPECT_LT(res.rmse, 0.05) << res.variant;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, BsVariantTest,
    ::testing::ValuesIn(kBlackscholesRows),
    [](const ::testing::TestParamInfo<Variant>& info) {
        switch (info.param) {
          case Variant::CpuSingle: return "CpuSingle";
          case Variant::CpuMulti: return "CpuMulti";
          case Variant::PimPoly: return "PimPoly";
          case Variant::PimMLut: return "PimMLut";
          case Variant::PimLLut: return "PimLLut";
          default: return "PimFixedLLut";
        }
    });

TEST(BlackscholesOrdering, LutVariantsBeatPolyBaseline)
{
    // Figure 9: TransPimLib LUT versions reduce execution time vs the
    // polynomial-approximation PIM baseline; the fixed-point L-LUT is
    // the fastest PIM variant.
    WorkloadConfig cfg = smallConfig();
    auto poly = runBlackscholes(Variant::PimPoly, cfg);
    auto mlut = runBlackscholes(Variant::PimMLut, cfg);
    auto llut = runBlackscholes(Variant::PimLLut, cfg);
    auto fixed = runBlackscholes(Variant::PimFixedLLut, cfg);
    EXPECT_LT(mlut.pimKernelSeconds, poly.pimKernelSeconds);
    EXPECT_LT(llut.pimKernelSeconds, mlut.pimKernelSeconds);
    EXPECT_LT(fixed.pimKernelSeconds, llut.pimKernelSeconds);
    // The paper reports 5-10x for poly -> LUT; require at least 2x.
    EXPECT_GT(poly.pimKernelSeconds, 2.0 * llut.pimKernelSeconds);
}

TEST(Sigmoid, PimVariantsAccurate)
{
    WorkloadConfig cfg = smallConfig();
    for (Variant v :
         {Variant::PimPoly, Variant::PimMLut, Variant::PimLLut}) {
        WorkloadResult res = runSigmoid(v, cfg);
        EXPECT_LT(res.maxAbsError, 1e-3) << res.variant;
        EXPECT_GT(res.seconds, 0.0);
    }
}

TEST(Sigmoid, CpuBaselines)
{
    WorkloadConfig cfg = smallConfig();
    auto one = runSigmoid(Variant::CpuSingle, cfg);
    auto many = runSigmoid(Variant::CpuMulti, cfg);
    EXPECT_LT(one.maxAbsError, 1e-6);
    EXPECT_GT(one.seconds, 0.0);
    // The multithreaded baseline must be modeled/measured faster.
    EXPECT_LT(many.seconds, one.seconds);
}

TEST(Sigmoid, LutBeatsPoly)
{
    WorkloadConfig cfg = smallConfig();
    auto poly = runSigmoid(Variant::PimPoly, cfg);
    auto llut = runSigmoid(Variant::PimLLut, cfg);
    auto mlut = runSigmoid(Variant::PimMLut, cfg);
    EXPECT_LT(llut.pimKernelSeconds, poly.pimKernelSeconds);
    EXPECT_LT(mlut.pimKernelSeconds, poly.pimKernelSeconds);
    EXPECT_LT(llut.pimKernelSeconds, mlut.pimKernelSeconds);
}

TEST(Softmax, OutputsSumToOne)
{
    WorkloadConfig cfg = smallConfig();
    WorkloadResult res = runSoftmax(Variant::PimLLut, cfg);
    // The per-element error against the exact softmax of the simulated
    // subset must be small; outputs are ~1/N so compare against that
    // scale.
    double scale =
        1.0 / (cfg.elementsPerSimDpu * cfg.simulatedDpus);
    EXPECT_LT(res.maxAbsError, 20 * scale) << res.variant;
}

TEST(Softmax, StableVariantHandlesWideInputs)
{
    // Inputs beyond float exp's range: the naive formulation
    // overflows (exp(90) = inf in binary32) while the max-subtracted
    // variant stays accurate. Softmax is shift-invariant, so both are
    // checked against the same double reference.
    WorkloadConfig cfg = smallConfig();
    cfg.inputLo = 60.0f;
    cfg.inputHi = 95.0f;

    cfg.stableSoftmax = true;
    auto stable = runSoftmax(Variant::PimLLut, cfg);
    double scale =
        1.0 / (cfg.elementsPerSimDpu * cfg.simulatedDpus);
    EXPECT_LT(stable.maxAbsError, 50 * scale);

    cfg.stableSoftmax = false;
    auto naive = runSoftmax(Variant::PimLLut, cfg);
    // The naive run degrades badly (inf/NaN propagate into errors).
    EXPECT_GT(naive.maxAbsError + (std::isnan(naive.maxAbsError) ? 1 : 0),
              stable.maxAbsError * 100);
}

TEST(Softmax, StableMatchesNaiveOnModestInputs)
{
    WorkloadConfig cfg = smallConfig();
    cfg.stableSoftmax = true;
    auto stable = runSoftmax(Variant::PimLLut, cfg);
    cfg.stableSoftmax = false;
    auto naive = runSoftmax(Variant::PimLLut, cfg);
    double scale =
        1.0 / (cfg.elementsPerSimDpu * cfg.simulatedDpus);
    EXPECT_LT(stable.maxAbsError, 20 * scale);
    EXPECT_LT(naive.maxAbsError, 20 * scale);
    // The stability pass costs an extra streaming pass.
    EXPECT_GT(stable.pimKernelSeconds, naive.pimKernelSeconds);
}

TEST(Softmax, StableListsTheMaxRoundTrip)
{
    // The stable form reads every tasklet's maximum back from every
    // DPU and broadcasts the global max to every DPU: its transfers
    // exceed the naive form's by exactly those bytes' modeled seconds.
    WorkloadConfig cfg = smallConfig();
    cfg.stableSoftmax = true;
    auto stable = runSoftmax(Variant::PimLLut, cfg);
    cfg.stableSoftmax = false;
    auto naive = runSoftmax(Variant::PimLLut, cfg);
    const sim::CostModel model;
    const uint32_t ranks = model.ranksEngaged(cfg.systemDpus);
    const uint64_t maxBytes = uint64_t{cfg.systemDpus} * sizeof(float);
    EXPECT_EQ(stable.hostToPimSeconds,
              naive.hostToPimSeconds +
                  model.parallelTransferSeconds(maxBytes, ranks));
    EXPECT_EQ(stable.pimToHostSeconds,
              naive.pimToHostSeconds +
                  model.parallelTransferSeconds(maxBytes * cfg.tasklets,
                                                ranks));
}

TEST(Softmax, AllVariantsRun)
{
    WorkloadConfig cfg = smallConfig();
    auto rows = runAll(kActivationRows, cfg, runSoftmax);
    EXPECT_EQ(5u, rows.size());
    for (const auto& r : rows) {
        EXPECT_GT(r.seconds, 0.0) << r.variant;
        EXPECT_EQ("Softmax", r.workload);
    }
}

TEST(Softmax, ReductionAddsTransferTraffic)
{
    // Softmax's host-mediated reduction adds transfers beyond
    // sigmoid's stream-in/stream-out (partial sums out, 1/sum back).
    // Its kernel can be cheaper per element (pass 2 is one multiply
    // while sigmoid pays a float divide) - the structural difference
    // is the communication.
    WorkloadConfig cfg = smallConfig();
    auto sig = runSigmoid(Variant::PimLLut, cfg);
    auto soft = runSoftmax(Variant::PimLLut, cfg);
    EXPECT_GT(soft.hostToPimSeconds + soft.pimToHostSeconds,
              sig.hostToPimSeconds + sig.pimToHostSeconds);
    EXPECT_GT(soft.pimKernelSeconds, 0.0);
}

LogisticConfig
smallLogistic()
{
    LogisticConfig cfg;
    cfg.totalElements = 500'000;
    cfg.elementsPerSimDpu = 256;
    cfg.simulatedDpus = 2;
    cfg.features = 8;
    cfg.cpuSampleElements = 50'000;
    return cfg;
}

TEST(Logistic, PimVariantsMatchReference)
{
    LogisticConfig cfg = smallLogistic();
    for (Variant v :
         {Variant::PimPoly, Variant::PimLLut, Variant::PimDlLut}) {
        WorkloadResult res = runLogistic(v, cfg);
        EXPECT_LT(res.maxAbsError, 5e-3) << res.variant;
        EXPECT_GT(res.seconds, 0.0);
        EXPECT_EQ("Logistic", res.workload);
    }
}

TEST(Logistic, CpuBaselineAccurate)
{
    LogisticConfig cfg = smallLogistic();
    auto res = runLogistic(Variant::CpuSingle, cfg);
    EXPECT_LT(res.maxAbsError, 1e-5);
}

TEST(Logistic, LutBeatsPolyAtLowDimension)
{
    LogisticConfig cfg = smallLogistic();
    cfg.features = 2;
    auto poly = runLogistic(Variant::PimPoly, cfg);
    auto llut = runLogistic(Variant::PimLLut, cfg);
    EXPECT_GT(poly.pimKernelSeconds, 1.5 * llut.pimKernelSeconds);
}

TEST(Logistic, GapShrinksWithFeatureDimension)
{
    // The amortization effect: more MACs per activation dilute the
    // transcendental's share of the kernel.
    LogisticConfig lo = smallLogistic();
    lo.features = 2;
    LogisticConfig hi = smallLogistic();
    hi.features = 64;
    double gapLo =
        runLogistic(Variant::PimPoly, lo).pimKernelSeconds /
        runLogistic(Variant::PimLLut, lo).pimKernelSeconds;
    double gapHi =
        runLogistic(Variant::PimPoly, hi).pimKernelSeconds /
        runLogistic(Variant::PimLLut, hi).pimKernelSeconds;
    EXPECT_GT(gapLo, gapHi);
    EXPECT_LT(gapHi, 1.6);
}

TEST(Logistic, AllVariantsRun)
{
    auto rows = runAll(kLogisticRows, smallLogistic(), runLogistic);
    EXPECT_EQ(5u, rows.size());
}

TEST(Raytrace, PimVariantsMatchReference)
{
    WorkloadConfig cfg = smallConfig();
    for (Variant v : {Variant::PimPoly, Variant::PimLLut}) {
        WorkloadResult res = runRaytrace(v, cfg);
        // Intensities are O(1); the specular pow amplifies method
        // error by the exponent (16), hence the looser bound.
        EXPECT_LT(res.maxAbsError, 0.05) << res.variant;
        EXPECT_LT(res.rmse, 0.01) << res.variant;
        EXPECT_GT(res.seconds, 0.0);
    }
}

TEST(Raytrace, CpuBaselineAccurate)
{
    WorkloadConfig cfg = smallConfig();
    auto res = runRaytrace(Variant::CpuSingle, cfg);
    EXPECT_LT(res.maxAbsError, 1e-4);
}

TEST(Raytrace, LutBeatsPoly)
{
    WorkloadConfig cfg = smallConfig();
    auto poly = runRaytrace(Variant::PimPoly, cfg);
    auto llut = runRaytrace(Variant::PimLLut, cfg);
    EXPECT_LT(llut.pimKernelSeconds, poly.pimKernelSeconds);
}

TEST(Raytrace, AllVariantsRun)
{
    auto rows = runAll(kRaytraceRows, smallConfig(), runRaytrace);
    EXPECT_EQ(4u, rows.size());
    for (const auto& r : rows)
        EXPECT_EQ("Raytrace", r.workload);
}

TEST(WorkloadInfra, CpuBaselineScalesLinearly)
{
    WorkloadConfig cfg = smallConfig();
    cfg.cpuSampleElements = 50'000;
    double t1 = timeCpuBaseline(cfg, 1, [](uint64_t b, uint64_t e) {
        volatile double acc = 0;
        for (uint64_t i = b; i < e; ++i)
            acc = acc + std::sqrt((double)i);
    });
    cfg.totalElements *= 2;
    double t2 = timeCpuBaseline(cfg, 1, [](uint64_t b, uint64_t e) {
        volatile double acc = 0;
        for (uint64_t i = b; i < e; ++i)
            acc = acc + std::sqrt((double)i);
    });
    EXPECT_GT(t2, 1.2 * t1);
}

TEST(WorkloadInfra, ProjectionMath)
{
    WorkloadConfig cfg;
    cfg.totalElements = 2545000;
    cfg.elementsPerSimDpu = 1000;
    cfg.systemDpus = 2545;
    sim::CostModel model;
    // 100 cycles/element, 1000 elements/system-DPU.
    double secs = projectPimSeconds(cfg, model, 100000);
    EXPECT_NEAR(100.0 * 1000.0 / model.frequencyHz, secs, 1e-12);
}

TEST(WorkloadInfra, ProjectionScalesLinearly)
{
    WorkloadConfig cfg;
    cfg.elementsPerSimDpu = 10;
    cfg.systemDpus = 2545;
    sim::CostModel model;
    // 1000 cycles for 10 elements -> 100 cycles/element.
    // 2545 DPUs, 2545000 elements -> 1000 elements/DPU -> 100k cycles.
    cfg.totalElements = 2545000;
    double secs = projectPimSeconds(cfg, model, 1000);
    EXPECT_NEAR(100000.0 / model.frequencyHz, secs, 1e-12);
    // Twice the elements, twice the seconds.
    cfg.totalElements = 2 * 2545000;
    EXPECT_NEAR(2 * secs, projectPimSeconds(cfg, model, 1000), 1e-12);
}

TEST(WorkloadInfra, PimTotalIsModeledKernelPlusTransfers)
{
    // A PIM row's total is the modeled kernel + h2p + p2h: the host
    // wall-clock of table generation is reported on its own and left
    // out, so two runs of one row give the same total.
    WorkloadConfig cfg = smallConfig();
    LogisticConfig logCfg = smallLogistic();
    auto rows = [&] {
        return std::vector<WorkloadResult>{
            runBlackscholes(Variant::PimLLut, cfg),
            runBlackscholes(Variant::PimFixedLLut, cfg),
            runSigmoid(Variant::PimLLut, cfg),
            runSoftmax(Variant::PimLLut, cfg),
            runLogistic(Variant::PimDlLut, logCfg),
            runRaytrace(Variant::PimLLut, cfg)};
    };
    std::vector<WorkloadResult> first = rows();
    std::vector<WorkloadResult> second = rows();
    for (size_t i = 0; i < first.size(); ++i) {
        const WorkloadResult& r = first[i];
        EXPECT_GT(r.hostSetupSeconds, 0.0) << r.workload;
        EXPECT_GT(r.pimKernelSeconds, 0.0) << r.workload;
        EXPECT_EQ(r.pimKernelSeconds + r.hostToPimSeconds +
                      r.pimToHostSeconds,
                  r.seconds)
            << r.workload;
        EXPECT_EQ(r.seconds, second[i].seconds) << r.workload;
    }
}

TEST(WorkloadInfra, VariantLabels)
{
    WorkloadConfig cfg;
    cfg.cpuThreads = 8;
    EXPECT_EQ("CPU 1T", variantLabel(Variant::CpuSingle, cfg));
    EXPECT_EQ("CPU 8T", variantLabel(Variant::CpuMulti, cfg));
    EXPECT_EQ("PIM fixed L-LUT interp.",
              variantLabel(Variant::PimFixedLLut, cfg));
    EXPECT_EQ("PIM DL-LUT interp.", variantLabel(Variant::PimDlLut, cfg));
    EXPECT_EQ(transpim::Method::DlLut,
              makeEvaluators(Variant::PimDlLut, cfg,
                             {transpim::Function::Sigmoid})[0]
                  .spec()
                  .method);
    EXPECT_TRUE(isCpu(Variant::CpuMulti));
    EXPECT_FALSE(isCpu(Variant::PimPoly));
}

} // namespace
} // namespace work
} // namespace tpl
