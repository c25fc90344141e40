/**
 * @file
 * CostModel parameter-sweep tests: the simulator must respond to every
 * exposed knob in the physically sensible direction - frequency scales
 * time but not cycles, pipeline interval moves the saturation point,
 * DMA parameters shift only DMA-bound kernels, memory sizes gate
 * allocation, and the energy parameters scale energy linearly.
 */

#include <gtest/gtest.h>

#include "pimsim/system.h"

namespace tpl {
namespace sim {
namespace {

Kernel
computeKernel(uint32_t work)
{
    return [work](TaskletContext& ctx) { ctx.charge(work); };
}

TEST(CostModelSweep, FrequencyScalesTimeNotCycles)
{
    CostModel slow;
    slow.frequencyHz = 350e6;
    CostModel fast = slow;
    fast.frequencyHz = 700e6;

    PimSystem sysSlow(1, slow);
    PimSystem sysFast(1, fast);
    uint64_t cSlow = sysSlow.launchAll(16, computeKernel(10000)).maxCycles;
    uint64_t cFast = sysFast.launchAll(16, computeKernel(10000)).maxCycles;
    EXPECT_EQ(cSlow, cFast);

    // The simulator turns the same cycles into modeled seconds at each
    // model's clock: the committed wave's event lasts twice as long on
    // the slow system.
    const ShardTask slices[] = {ShardTask{}};
    const ShardKernelFactory factory = [](const ShardTask&) {
        return computeKernel(10000);
    };
    auto waveSeconds = [&](PimSystem& sys) {
        PipelineTimeline timeline(sys.numDpus(), sys.model());
        LaunchHandle launch = sys.submitLaunch(slices, 16, factory);
        return sys.commitLaunch(launch, timeline, 0.0).seconds();
    };
    double tSlow = waveSeconds(sysSlow);
    double tFast = waveSeconds(sysFast);
    EXPECT_NEAR(static_cast<double>(cSlow) / slow.frequencyHz, tSlow,
                1e-12);
    EXPECT_NEAR(static_cast<double>(cFast) / fast.frequencyHz, tFast,
                1e-12);
    EXPECT_NEAR(2.0, tSlow / tFast, 1e-9);
}

TEST(CostModelSweep, PipelineIntervalMovesSaturation)
{
    CostModel shallow;
    shallow.pipelineInterval = 4;
    DpuCore dpu(shallow);
    // With a 4-cycle interval, 4 tasklets already saturate: adding
    // more only raises total issue cycles linearly.
    LaunchStats at4 = dpu.launch(4, computeKernel(1000));
    EXPECT_EQ(4000u, at4.cycles); // issue-bound at 4 tasklets
    LaunchStats at2 = dpu.launch(2, computeKernel(1000));
    EXPECT_EQ(4000u, at2.cycles); // latency-bound: 1000 * 4
}

TEST(CostModelSweep, DmaParametersShiftDmaBoundKernels)
{
    CostModel fastDma;
    CostModel slowDma;
    slowDma.dmaCyclesPerByte = 4.0; // 8x slower streaming

    std::vector<uint8_t> buf(2048);
    auto streamKernel = [&](TaskletContext& ctx) {
        for (int i = 0; i < 64; ++i)
            ctx.mramRead(i * 2048, buf.data(), 2048);
    };
    DpuCore a(fastDma), b(slowDma);
    LaunchStats fast = a.launch(16, streamKernel);
    LaunchStats slow = b.launch(16, streamKernel);
    EXPECT_GT(slow.cycles, 4 * fast.cycles);
    // A compute kernel is unaffected.
    LaunchStats ca = a.launch(16, computeKernel(5000));
    LaunchStats cb = b.launch(16, computeKernel(5000));
    EXPECT_EQ(ca.cycles, cb.cycles);
}

TEST(CostModelSweep, MemorySizesGateAllocation)
{
    CostModel tiny;
    tiny.wramBytes = 1024;
    tiny.mramBytes = 8192;
    DpuCore dpu(tiny);
    EXPECT_NO_THROW(dpu.wramAlloc(1024));
    EXPECT_THROW(dpu.wramAlloc(8), std::bad_alloc);
    EXPECT_NO_THROW(dpu.mramAlloc(8192));
    EXPECT_THROW(dpu.mramAlloc(8), std::bad_alloc);
}

TEST(CostModelSweep, EnergyParametersScaleLinearly)
{
    CostModel base;
    CostModel doubled = base;
    doubled.instrEnergyPj *= 2.0;
    DpuCore a(base), b(doubled);
    LaunchStats ea = a.launch(1, computeKernel(1000));
    LaunchStats eb = b.launch(1, computeKernel(1000));
    EXPECT_NEAR(2.0, eb.energyJoules / ea.energyJoules, 1e-9);
}

TEST(CostModelSweep, TransferBandwidthKnobs)
{
    CostModel narrow;
    narrow.hostParallelBandwidth = 1e9;
    narrow.hostAggregateBandwidthCap = 4e9;
    const uint32_t ranks = narrow.ranksEngaged(256); // 4 ranks
    EXPECT_EQ(4u, ranks);
    // 4 ranks x 1 GB/s = 4 GB/s, exactly at the cap.
    EXPECT_NEAR(1.0 / 4.0,
                narrow.parallelTransferSeconds(1'000'000'000, ranks),
                1e-6);
    // A flat 256-DPU timeline's broadcast lane engages the same 4.
    PipelineTimeline flat(256, narrow);
    EXPECT_EQ(ranks, flat.laneRanks());
    CostModel capped = narrow;
    capped.hostAggregateBandwidthCap = 2e9;
    EXPECT_NEAR(1.0 / 2.0,
                capped.parallelTransferSeconds(1'000'000'000, ranks),
                1e-6);
}

} // namespace
} // namespace sim
} // namespace tpl
