/**
 * @file
 * Unit tests for the PIM simulator: memory models, allocators, the DMA
 * model, the pipeline cycle model and its scaling law, and the
 * multi-DPU system's transfer legs and their timing.
 */

#include <cstdint>
#include <cstring>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "lane_transfers.h"
#include "pimsim/system.h"
#include "softfloat/softfloat.h"

namespace tpl {
namespace sim {
namespace {

TEST(DpuMemory, HostMramRoundTrip)
{
    DpuCore dpu;
    std::vector<uint32_t> data(256);
    std::iota(data.begin(), data.end(), 0u);
    dpu.hostWriteMram(4096, data.data(), data.size() * 4);
    std::vector<uint32_t> back(256);
    dpu.hostReadMram(4096, back.data(), back.size() * 4);
    EXPECT_EQ(data, back);
}

TEST(DpuMemory, MramBoundsChecked)
{
    CostModel small;
    small.mramBytes = 4096;
    DpuCore dpu(small);
    uint8_t b = 0;
    EXPECT_THROW(dpu.hostWriteMram(4096, &b, 1), std::out_of_range);
    EXPECT_THROW(dpu.hostReadMram(5000, &b, 1), std::out_of_range);
}

TEST(DpuMemory, AllocatorsAlignAndTrack)
{
    DpuCore dpu;
    uint32_t a = dpu.mramAlloc(10);
    uint32_t b = dpu.mramAlloc(10);
    EXPECT_EQ(0u, a);
    EXPECT_EQ(16u, b); // 10 rounded up to 16
    EXPECT_EQ(32u, dpu.mramAllocated());

    uint32_t w = dpu.wramAlloc(100);
    EXPECT_EQ(0u, w);
    EXPECT_EQ(104u, dpu.wramAllocated());

    dpu.resetAllocators();
    EXPECT_EQ(0u, dpu.mramAllocated());
    EXPECT_EQ(0u, dpu.wramAllocated());
}

TEST(DpuMemory, AllocatorExhaustionThrows)
{
    CostModel small;
    small.mramBytes = 1024;
    small.wramBytes = 256;
    DpuCore dpu(small);
    EXPECT_NO_THROW(dpu.mramAlloc(1024));
    EXPECT_THROW(dpu.mramAlloc(8), std::bad_alloc);
    EXPECT_NO_THROW(dpu.wramAlloc(256));
    EXPECT_THROW(dpu.wramAlloc(8), std::bad_alloc);
}

TEST(DpuMemory, AllocatorEndDoesNotWrapPast32Bits)
{
    // top + size wraps a 32-bit sum back below the bank size; the
    // allocator must see the real end and refuse, not alias address 8.
    DpuCore dpu;
    const uint32_t huge = UINT32_MAX - 3;
    EXPECT_EQ(0u, dpu.mramAlloc(8));
    EXPECT_THROW(dpu.mramAlloc(huge), std::bad_alloc);
    EXPECT_EQ(8u, dpu.mramAllocated());
    EXPECT_EQ(0u, dpu.wramAlloc(8));
    EXPECT_THROW(dpu.wramAlloc(huge), std::bad_alloc);
    EXPECT_EQ(8u, dpu.wramAllocated());
}

TEST(DpuLaunch, ChargesInstructions)
{
    DpuCore dpu;
    LaunchStats stats = dpu.launch(1, [](TaskletContext& ctx) {
        ctx.charge(100);
    });
    EXPECT_EQ(100u, stats.totalInstructions);
    // Single tasklet: latency-bound at pipelineInterval per instr.
    EXPECT_EQ(100u * dpu.model().pipelineInterval, stats.cycles);
}

TEST(DpuLaunch, PipelineScalingLaw)
{
    // Equal work per tasklet: cycles should scale as
    // max(total, perTasklet * interval); with >= interval tasklets the
    // core is issue-bound at 1 instruction/cycle.
    DpuCore dpu;
    const uint32_t work = 10000;
    auto kernel = [&](TaskletContext& ctx) { ctx.charge(work); };

    std::vector<uint64_t> cycles;
    for (uint32_t t : {1u, 2u, 4u, 8u, 11u, 16u}) {
        LaunchStats stats = dpu.launch(t, kernel);
        cycles.push_back(stats.cycles);
        uint64_t expected = std::max<uint64_t>(
            static_cast<uint64_t>(t) * work,
            static_cast<uint64_t>(work) * dpu.model().pipelineInterval);
        EXPECT_EQ(expected, stats.cycles) << t << " tasklets";
    }
    // 1..8 tasklets: latency-bound, constant cycles.
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(cycles[0], cycles[3]);
    // 16 tasklets: issue-bound, more total cycles but higher throughput
    // (cycles per tasklet-instruction decreases).
    EXPECT_GT(cycles[5], cycles[4]);
    double perInstr1 = static_cast<double>(cycles[0]) / work;
    double perInstr16 = static_cast<double>(cycles[5]) / (16.0 * work);
    EXPECT_GT(perInstr1, 10.0 * perInstr16 / 1.5);
}

TEST(DpuLaunch, TaskletIdsAndCounts)
{
    DpuCore dpu;
    std::vector<uint32_t> seen;
    dpu.launch(8, [&](TaskletContext& ctx) {
        EXPECT_EQ(8u, ctx.numTasklets());
        seen.push_back(ctx.taskletId());
    });
    std::vector<uint32_t> expect{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(expect, seen);
}

TEST(DpuLaunch, RejectsOutOfRangeTaskletCounts)
{
    // Release builds compile asserts out, so the range check on this
    // caller-supplied count must stay a real one.
    DpuCore dpu;
    uint32_t runs = 0;
    auto kernel = [&](TaskletContext&) { ++runs; };
    const uint32_t max = CostModel{}.maxTasklets;
    EXPECT_THROW(dpu.launch(0, kernel), std::invalid_argument);
    EXPECT_THROW(dpu.launch(max + 1, kernel), std::invalid_argument);
    EXPECT_EQ(runs, 0u);
    EXPECT_EQ(dpu.launch(1, kernel).tasklets, 1u);
    EXPECT_EQ(dpu.launch(max, kernel).tasklets, max);
    EXPECT_EQ(runs, 1u + max);
}

TEST(DpuDma, MramReadMovesDataAndCharges)
{
    DpuCore dpu;
    std::vector<float> input(64, 1.5f);
    dpu.hostWriteMram(0, input.data(), input.size() * 4);

    std::vector<float> chunk(64);
    LaunchStats stats = dpu.launch(1, [&](TaskletContext& ctx) {
        ctx.mramRead(0, chunk.data(), 256);
    });
    EXPECT_EQ(1.5f, chunk[0]);
    EXPECT_EQ(1.5f, chunk[63]);
    EXPECT_GT(stats.dmaEngineCycles, 0u);
    // Engine: setup + 0.5 cycles/byte.
    EXPECT_EQ(dpu.model().dmaSetupCycles + 128u, stats.dmaEngineCycles);
}

TEST(DpuDma, BoundarySizedDmaCycleMathStays64Bit)
{
    // One bank-boundary-sized DMA with a swept per-byte cost whose
    // streaming term (2^25 bytes * 256 cycles/byte = 2^33 cycles)
    // exceeds uint32_t. If accountDma ever multiplied in 32-bit
    // arithmetic the term would wrap to zero; the engine total must be
    // exact.
    CostModel model;
    model.mramBytes = 32u * 1024 * 1024;
    model.dmaCyclesPerByte = 256.0;
    DpuCore dpu(model);
    const uint32_t size = model.mramBytes;
    std::vector<uint8_t> buf(size);
    LaunchStats stats = dpu.launch(1, [&](TaskletContext& ctx) {
        ctx.mramRead(0, buf.data(), size);
    });
    const uint64_t streaming = static_cast<uint64_t>(size) * 256u;
    EXPECT_EQ(model.dmaSetupCycles + streaming,
              stats.dmaEngineCycles);
    EXPECT_EQ(static_cast<uint64_t>(size), stats.dmaBytes);
    // The issuing tasklet stalls for latency + engine occupancy, and
    // the launch is DMA-bound, so cycles carry the full 64-bit term.
    EXPECT_GE(stats.cycles, streaming);
}

TEST(DpuDma, WriteBackVisibleToHost)
{
    DpuCore dpu;
    std::vector<float> out(16, 2.25f);
    dpu.launch(1, [&](TaskletContext& ctx) {
        ctx.mramWrite(1024, out.data(), 64);
    });
    std::vector<float> host(16);
    dpu.hostReadMram(1024, host.data(), 64);
    EXPECT_EQ(out, host);
}

TEST(DpuDma, LargeStreamIsBandwidthBound)
{
    // Streaming 1 MB through 2-KB DMA chunks with one tasklet: cycles
    // should approach dmaCyclesPerByte per byte once latency overlaps.
    DpuCore dpu;
    std::vector<uint8_t> buf(2048);
    LaunchStats stats = dpu.launch(16, [&](TaskletContext& ctx) {
        // Each of the 16 tasklets streams 32 chunks of 2 KB.
        for (int i = 0; i < 32; ++i)
            ctx.mramRead((ctx.taskletId() * 32u + i) * 2048u,
                         buf.data(), 2048);
    });
    double bytes = 16.0 * 32 * 2048;
    double cyclesPerByte = static_cast<double>(stats.cycles) / bytes;
    EXPECT_LT(cyclesPerByte, 0.8);
    EXPECT_GT(cyclesPerByte, 0.4);
}

TEST(DpuLaunch, SoftFloatIntegration)
{
    // A kernel that sums floats through the soft-float path must charge
    // instructions automatically via the InstrSink interface.
    DpuCore dpu;
    float result = 0.0f;
    LaunchStats stats = dpu.launch(1, [&](TaskletContext& ctx) {
        float acc = 0.0f;
        for (int i = 0; i < 10; ++i)
            acc = sf::add(acc, 1.25f, &ctx);
        result = acc;
    });
    EXPECT_EQ(12.5f, result);
    EXPECT_GT(stats.totalInstructions, 10u * 40u);
}

TEST(PimSystem, BroadcastLegEngagesTheLaneRanks)
{
    // A flat lane over N DPUs broadcasts at the parallel rate of
    // max(1, N / dpusPerRank) model ranks; the leg waits for its
    // dependency and then occupies the lane.
    PimSystem small(4);
    PipelineTimeline one(small.numDpus(), small.model());
    EXPECT_EQ(1u, one.laneCount());
    EXPECT_EQ(1u, one.laneRanks());
    const double rate = small.model().parallelTransferSeconds(4096, 1);
    PipelineEvent a = small.broadcastAsync(one, 0, 1e-3, 4096);
    EXPECT_EQ(1e-3, a.start);
    EXPECT_EQ(1e-3 + rate, a.end);
    PipelineEvent b = small.broadcastAsync(one, 0, 0.0, 4096);
    EXPECT_EQ(a.end, b.start); // serialized behind the first leg
    EXPECT_EQ(2 * rate, small.transferStats().broadcast.seconds);

    CostModel model;
    PipelineTimeline two(2 * model.dpusPerRank, model);
    EXPECT_EQ(2u, two.laneRanks());
    PimSystem big(1);
    PipelineEvent c = big.broadcastAsync(two, 0, 0.0, 4096);
    EXPECT_EQ(0.0, c.start);
    EXPECT_EQ(rate, 2.0 * c.end);
    EXPECT_EQ(c.end, two.makespan());
}

TEST(PimSystem, ScatterGatherRoundTrip)
{
    PimSystem sys(4);
    PipelineTimeline tl(sys.numDpus(), sys.model());
    std::vector<float> data(400);
    std::iota(data.begin(), data.end(), 0.0f);
    sys.scatterAsync(tl, 0, 0.0,
                     testxfer::equalScatter(sys, 0, data.data(), 400));
    std::vector<float> back(400);
    sys.gatherAsync(tl, 0, 0.0,
                    testxfer::equalGather(sys, 0, back.data(), 400));
    EXPECT_EQ(data, back);
}

TEST(PimSystem, ScatterPlacesCorrectSlices)
{
    PimSystem sys(2);
    PipelineTimeline tl(sys.numDpus(), sys.model());
    std::vector<uint32_t> data{10, 11, 20, 21};
    sys.scatterAsync(tl, 0, 0.0,
                     testxfer::equalScatter(sys, 0, data.data(), 8));
    uint32_t v[2];
    sys.dpu(0).hostReadMram(0, v, 8);
    EXPECT_EQ(10u, v[0]);
    EXPECT_EQ(11u, v[1]);
    sys.dpu(1).hostReadMram(0, v, 8);
    EXPECT_EQ(20u, v[0]);
    EXPECT_EQ(21u, v[1]);
}

TEST(PimSystem, TransferTimingModel)
{
    CostModel model;
    const uint32_t ranks = model.ranksEngaged(64);
    // Parallel beats serial for the same volume.
    EXPECT_LT(model.parallelTransferSeconds(1 << 20, ranks),
              model.serialTransferSeconds(1 << 20));
    // Timing is linear in bytes.
    EXPECT_NEAR(2 * model.parallelTransferSeconds(1 << 20, ranks),
                model.parallelTransferSeconds(2 << 20, ranks), 1e-12);
    // A transfer engages max(1, dpus / dpusPerRank) model ranks.
    EXPECT_EQ(1u, model.ranksEngaged(1));
    EXPECT_EQ(1u, model.ranksEngaged(64));
    EXPECT_EQ(2u, model.ranksEngaged(128));
    CostModel noRanks;
    noRanks.dpusPerRank = 0;
    EXPECT_EQ(1u, noRanks.ranksEngaged(2545));
}

TEST(PimSystem, LaunchAllRunsEveryDpuAndTakesMax)
{
    PimSystem sys(3);
    // Give DPU-specific work by keying off MRAM contents.
    for (uint32_t i = 0; i < 3; ++i) {
        uint32_t work = (i + 1) * 1000;
        sys.dpu(i).hostWriteMram(0, &work, 4);
    }
    LaunchReport rep = sys.launchAll(1, [](TaskletContext& ctx) {
        uint32_t work = 0;
        ctx.core().hostReadMram(0, &work, 4);
        ctx.charge(work);
    });
    // Max work = 3000 instr, 1 tasklet -> 33000 cycles at 350 MHz.
    uint64_t expectCycles =
        3000ull * sys.model().pipelineInterval;
    EXPECT_EQ(expectCycles, rep.maxCycles);
    EXPECT_EQ(3u, rep.attempted);
}

TEST(DpuEnergy, InstructionAndDmaComponents)
{
    DpuCore dpu;
    std::vector<uint8_t> buf(1024);
    LaunchStats stats = dpu.launch(1, [&](TaskletContext& ctx) {
        ctx.charge(1000);
        ctx.mramRead(0, buf.data(), 1024);
    });
    EXPECT_EQ(1024u, stats.dmaBytes);
    double expected =
        ((1000.0 + 2.0) * dpu.model().instrEnergyPj +
         1024.0 * dpu.model().dmaEnergyPerBytePj) *
        1e-12;
    EXPECT_NEAR(expected, stats.energyJoules, expected * 1e-9);
}

TEST(DpuEnergy, ScalesWithWork)
{
    DpuCore dpu;
    LaunchStats a = dpu.launch(1, [](TaskletContext& ctx) {
        ctx.charge(100);
    });
    LaunchStats b = dpu.launch(1, [](TaskletContext& ctx) {
        ctx.charge(200);
    });
    EXPECT_NEAR(2.0, b.energyJoules / a.energyJoules, 1e-9);
}

} // namespace
} // namespace sim
} // namespace tpl
