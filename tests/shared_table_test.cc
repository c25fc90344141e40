/**
 * @file
 * Shared-table serving: EvaluatorCatalog generates each key's tables
 * once and every core maps that one host copy copy-on-write, so a
 * kernel reads through its own core and a write (or fault) gives that
 * core a private copy. Locks that against a per-core reference
 * provider (one generated evaluator per DPU) on the flat and fleet
 * paths at 1, 4 and 16 simulation threads: outputs, per-wave stats and
 * journal bytes must be bit-identical, also with WRAM and MRAM soft
 * errors armed on one DPU. Also covers DpuCore's shared regions
 * directly, all-or-nothing table binds, table lifetime past the
 * catalog and pipeline, and the privatized-bytes counter. The threaded
 * runs use dedicated pools, so every sim thread reads the one shared
 * evaluator concurrently (the TSan tier runs these suites).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pimsim/obs/journal.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/thread_pool.h"
#include "pimsim/topology.h"
#include "transpim/serve_glue.h"

using namespace tpl;
using namespace tpl::sim;
using namespace tpl::transpim;

namespace {

/** The catalog provider before tables were shared: one freshly
 * generated evaluator per DPU, each attached to its own core. */
serve::TableProvider
perCoreProvider(const EvaluatorCatalog& catalog)
{
    return [&catalog](const serve::TableKey& key,
                      PimSystem& sys) -> serve::TableBinding {
        serve::TableBinding binding;
        auto entry = catalog.find(key.hash);
        if (!entry)
            return binding;
        auto evals = std::make_shared<std::vector<FunctionEvaluator>>(
            sys.numDpus());
        try {
            for (uint32_t d = 0; d < sys.numDpus(); ++d) {
                (*evals)[d] =
                    FunctionEvaluator::create(entry->first, entry->second);
                (*evals)[d].attach(sys.dpu(d));
            }
        } catch (const UnsupportedCombination&) {
            return binding;
        } catch (const std::bad_alloc&) {
            return binding;
        }
        binding.valid = true;
        binding.tableBytes = evals->front().memoryBytes();
        const uint32_t chunk = catalog.chunkElements();
        binding.makeKernel =
            [evals, chunk](const ShardTask& t) -> Kernel {
            return makeStreamingKernel((*evals)[t.dpu], t, chunk);
        };
        binding.state = evals;
        return binding;
    };
}

struct ReplayResult
{
    serve::ServeReport rep;
    std::vector<float> out;
    std::string journal;
};

/**
 * Replay a mixed four-table trace (sin/cos/exp/sigmoid, interpolated
 * L-LUT at @p placement) on 8 DPUs flat when @p topo is null, else on
 * the topology's DPUs. @p threads of 1 forces the serial path; more
 * runs on a dedicated pool of that size.
 */
ReplayResult
replay(bool shared, const Topology* topo, uint32_t threads,
       const char* planText = nullptr,
       Placement placement = Placement::Wram)
{
    PimSystem sys(topo ? topo->numDpus() : 8);
    std::unique_ptr<ThreadPool> pool;
    if (threads == 1) {
        sys.setSimThreads(1);
    } else {
        pool = std::make_unique<ThreadPool>(threads);
        sys.setThreadPool(pool.get());
    }
    if (planText) {
        auto plan = fault::FaultPlan::parse(planText);
        EXPECT_TRUE(plan.has_value());
        if (plan)
            sys.armFaults(*plan);
    }

    EvaluatorCatalog catalog;
    const Function fns[4] = {Function::Sin, Function::Cos, Function::Exp,
                             Function::Sigmoid};
    const uint32_t requests = 24;
    const uint32_t perRequest = 100;
    std::vector<float> in(requests * perRequest);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = 0.001f +
                0.9f * static_cast<float>((i * 37) % 1000) / 1000.0f;
    ReplayResult run;
    run.out.assign(in.size(), 0.0f);

    obs::Journal journal;
    serve::BatchQueue queue;
    queue.setJournal(&journal);
    MethodSpec spec;
    spec.placement = placement;
    for (uint32_t r = 0; r < requests; ++r) {
        serve::Request q;
        q.table = catalog.add(fns[r % 4], spec);
        q.input = in.data() + r * perRequest;
        q.output = run.out.data() + r * perRequest;
        q.elements = perRequest;
        queue.push(q);
    }
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = 32;
    popts.journal = &journal;
    popts.topology = topo;
    serve::ServePipeline pipeline(
        sys, shared ? catalog.provider() : perCoreProvider(catalog),
        popts);
    run.rep = pipeline.run(queue);
    run.journal = journal.toJsonl();
    return run;
}

void
expectIdentical(const ReplayResult& got, const ReplayResult& want)
{
    EXPECT_EQ(got.rep.complete, want.rep.complete);
    EXPECT_EQ(got.rep.waves, want.rep.waves);
    EXPECT_EQ(got.rep.cacheMisses, want.rep.cacheMisses);
    EXPECT_EQ(got.rep.modeledSeconds, want.rep.modeledSeconds);
    EXPECT_EQ(got.rep.computeCycles, want.rep.computeCycles);
    ASSERT_EQ(got.out.size(), want.out.size());
    EXPECT_EQ(std::memcmp(got.out.data(), want.out.data(),
                          want.out.size() * sizeof(float)),
              0);
    ASSERT_EQ(got.rep.waveStats.size(), want.rep.waveStats.size());
    for (size_t i = 0; i < got.rep.waveStats.size(); ++i) {
        const serve::WaveStats& g = got.rep.waveStats[i];
        const serve::WaveStats& w = want.rep.waveStats[i];
        EXPECT_EQ(g.elements, w.elements) << "wave " << i;
        EXPECT_EQ(g.slices, w.slices) << "wave " << i;
        EXPECT_EQ(g.tableMiss, w.tableMiss) << "wave " << i;
        EXPECT_EQ(g.broadcastSeconds, w.broadcastSeconds) << "wave " << i;
        EXPECT_EQ(g.scatterSeconds, w.scatterSeconds) << "wave " << i;
        EXPECT_EQ(g.computeSeconds, w.computeSeconds) << "wave " << i;
        EXPECT_EQ(g.gatherSeconds, w.gatherSeconds) << "wave " << i;
        EXPECT_EQ(g.maxCycles, w.maxCycles) << "wave " << i;
        EXPECT_EQ(g.totalCycles, w.totalCycles) << "wave " << i;
        EXPECT_EQ(g.retriedSlices, w.retriedSlices) << "wave " << i;
        EXPECT_EQ(g.medianCycles, w.medianCycles) << "wave " << i;
        EXPECT_EQ(g.stragglerDpus, w.stragglerDpus) << "wave " << i;
    }
    ASSERT_EQ(got.rep.rankStats.size(), want.rep.rankStats.size());
    for (size_t r = 0; r < got.rep.rankStats.size(); ++r) {
        EXPECT_EQ(got.rep.rankStats[r].waves, want.rep.rankStats[r].waves);
        EXPECT_EQ(got.rep.rankStats[r].computeCycles,
                  want.rep.rankStats[r].computeCycles);
        EXPECT_EQ(got.rep.rankStats[r].makespanSeconds,
                  want.rep.rankStats[r].makespanSeconds);
    }
    EXPECT_EQ(got.journal, want.journal); // bytes, not just stats
}

const Topology kTwoRanks{1, 2, 4}; // one DIMM, 2 ranks x 4 DPUs

} // namespace

TEST(SharedTable, CatalogMatchesPerCoreReference)
{
    for (const Topology* topo : {static_cast<const Topology*>(nullptr),
                                 &kTwoRanks}) {
        for (uint32_t threads : {1u, 4u, 16u}) {
            SCOPED_TRACE(std::string(topo ? "fleet" : "flat") + ", " +
                         std::to_string(threads) + " threads");
            ReplayResult ref = replay(false, topo, threads);
            ASSERT_TRUE(ref.rep.complete);
            expectIdentical(replay(true, topo, threads), ref);
        }
    }
}

TEST(SharedTable, EachDpuReadsItsOwnWramCopy)
{
    // Flip an exponent bit in every 8th float of the first 2400 WRAM
    // bytes on DPU 1 only. The sin table is bound first, at address
    // 0, so DPU 1's sin slices read corrupted entries. Reading any
    // other core's copy (say, the one attached last) would miss the
    // flips and diverge from the per-core reference.
    std::string plan = "seed 1\n";
    for (uint32_t addr = 3; addr < 2400; addr += 32)
        plan += "fault kind=wram-bit-flip dpu=1 addr=" +
                std::to_string(addr) + " bit=6\n";
    for (const Topology* topo : {static_cast<const Topology*>(nullptr),
                                 &kTwoRanks}) {
        for (uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(topo ? "fleet" : "flat") + ", " +
                         std::to_string(threads) + " threads");
            ReplayResult clean = replay(true, topo, threads);
            ReplayResult ref = replay(false, topo, threads, plan.c_str());
            ReplayResult got = replay(true, topo, threads, plan.c_str());
            ASSERT_EQ(ref.out.size(), clean.out.size());
            EXPECT_NE(std::memcmp(ref.out.data(), clean.out.data(),
                                  clean.out.size() * sizeof(float)),
                      0)
                << "the armed flip never reached an output";
            expectIdentical(got, ref);
        }
    }
}

TEST(SharedTable, DivergentAddressAttachThrows)
{
    for (Placement p : {Placement::Wram, Placement::Mram}) {
        MethodSpec spec;
        spec.placement = p;
        FunctionEvaluator ev = FunctionEvaluator::create(Function::Sin, spec);
        DpuCore a;
        DpuCore b;
        if (p == Placement::Wram)
            b.wramAlloc(8);
        else
            b.mramAlloc(8);
        EXPECT_NO_THROW(ev.attach(a)) << placementName(p);
        EXPECT_THROW(ev.attach(b), std::logic_error) << placementName(p);
    }
}

TEST(SharedTable, EachDpuReadsItsOwnMramCopy)
{
    // The pipeline allocates its four 128-byte wave buffers (two in,
    // two out, 32 elements each) at run start, so the sin table,
    // bound first, starts at MRAM 512. Damage an exponent bit in every
    // 8th float of its first 2400 bytes on DPU 1 only, by a one-shot
    // flip and by a stuck bit (applied when the table lands).
    for (const char* kind : {"mram-bit-flip", "mram-stuck-bit"}) {
        std::string plan = "seed 1\n";
        for (uint32_t addr = 512 + 3; addr < 512 + 2400; addr += 32)
            plan += std::string("fault kind=") + kind +
                    " dpu=1 addr=" + std::to_string(addr) + " bit=6" +
                    (kind[5] == 's' ? " stuck=1" : "") + "\n";
        for (const Topology* topo :
             {static_cast<const Topology*>(nullptr), &kTwoRanks}) {
            for (uint32_t threads : {1u, 4u}) {
                SCOPED_TRACE(std::string(kind) + ", " +
                             (topo ? "fleet" : "flat") + ", " +
                             std::to_string(threads) + " threads");
                ReplayResult clean = replay(true, topo, threads, nullptr,
                                            Placement::Mram);
                ReplayResult ref = replay(false, topo, threads,
                                          plan.c_str(), Placement::Mram);
                ReplayResult got = replay(true, topo, threads,
                                          plan.c_str(), Placement::Mram);
                ASSERT_EQ(ref.out.size(), clean.out.size());
                EXPECT_NE(std::memcmp(ref.out.data(), clean.out.data(),
                                      clean.out.size() * sizeof(float)),
                          0)
                    << "the armed fault never reached an output";
                expectIdentical(got, ref);
            }
        }
    }
}

TEST(SharedTable, PartialBindRollsBackEveryCore)
{
    // tan's L-LUT holds a sine and a cosine table. At 2^14 entries in
    // WRAM the sine table fits a core's scratchpad but the cosine one
    // no longer does, so the bind fails on core 0 half way. It must
    // leave no allocation behind on any core: the sin bind after it
    // then finds both cores in lockstep (a leftover table on core 0
    // alone used to make it throw out of run()).
    PimSystem sys(2);
    sys.setSimThreads(1);
    EvaluatorCatalog catalog;
    MethodSpec tanSpec;
    tanSpec.log2Entries = 14;
    MethodSpec sinSpec;
    sinSpec.log2Entries = 8;

    const uint32_t perRequest = 40;
    std::vector<float> in(4 * perRequest);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = 0.01f + 6.0f * static_cast<float>(i) /
                            static_cast<float>(in.size());
    std::vector<float> out(in.size(), 0.0f);
    serve::BatchQueue queue;
    for (uint32_t r = 0; r < 4; ++r) {
        serve::Request q;
        q.table = r < 2 ? catalog.add(Function::Tan, tanSpec)
                        : catalog.add(Function::Sin, sinSpec);
        q.input = in.data() + r * perRequest;
        q.output = out.data() + r * perRequest;
        q.elements = perRequest;
        queue.push(q);
    }
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 4;
    popts.perDpuElements = 32;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep;
    ASSERT_NO_THROW(rep = pipeline.run(queue));
    EXPECT_EQ(rep.infeasibleElements, 2u * perRequest);
    EXPECT_EQ(sys.dpu(0).wramAllocated(), sys.dpu(1).wramAllocated());
    EXPECT_EQ(sys.dpu(0).regionCount(), sys.dpu(1).regionCount());

    FunctionEvaluator host = FunctionEvaluator::create(Function::Sin,
                                                       sinSpec);
    std::vector<float> want(2 * perRequest);
    host.evalBatch(std::span<const float>(in).subspan(2 * perRequest),
                   want);
    EXPECT_EQ(std::memcmp(out.data() + 2 * perRequest, want.data(),
                          want.size() * sizeof(float)),
              0);
}

TEST(SharedTable, TablesOutliveCatalogCacheAndPipeline)
{
    // The cores keep the shared host copy alive: with the catalog, its
    // evaluator, the table cache and the pipeline gone, the table
    // still reads back from the live system (the ASan tier checks
    // this is not a dangling read).
    PimSystem sys(2);
    sys.setSimThreads(1);
    MethodSpec spec;
    {
        EvaluatorCatalog catalog;
        std::vector<float> in(64, 0.5f), out(64);
        serve::BatchQueue queue;
        serve::Request q;
        q.table = catalog.add(Function::Sin, spec);
        q.input = in.data();
        q.output = out.data();
        q.elements = in.size();
        queue.push(q);
        queue.close();
        serve::PipelineOptions popts;
        popts.perDpuElements = 32;
        serve::ServePipeline pipeline(sys, catalog.provider(), popts);
        ASSERT_TRUE(pipeline.run(queue).complete);
    }

    // The same table, generated afresh on a scratch core.
    FunctionEvaluator ev = FunctionEvaluator::create(Function::Sin, spec);
    DpuCore scratch;
    ev.attach(scratch);
    const uint32_t bytes = ev.memoryBytes();
    ASSERT_GT(bytes, 0u);
    std::vector<uint8_t> want(bytes), got(bytes);
    scratch.hostReadWram(0, want.data(), bytes);
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        ASSERT_EQ(sys.dpu(d).wramAllocated(), bytes);
        EXPECT_TRUE(sys.dpu(d).regionShared(0));
        sys.dpu(d).hostReadWram(0, got.data(), bytes);
        EXPECT_EQ(got, want) << "dpu " << d;
    }
}

TEST(SharedTable, PrivatizedBytesCounter)
{
    // A clean replay reads every table through the shared host copy;
    // an armed plan privatizes them on every core.
    obs::Registry& reg = obs::Registry::global();
    reg.setEnabled(true);
    obs::Counter& privatized =
        reg.counter("pimsim/dpu/table_privatized_bytes");
    privatized.reset();
    const Topology fleet{20, 2, 64};
    ReplayResult clean = replay(true, &fleet, 1);
    EXPECT_TRUE(clean.rep.complete);
    EXPECT_EQ(privatized.value(), 0u);

    std::string plan = "seed 1\nfault kind=wram-bit-flip dpu=1 addr=3 "
                       "bit=6\n";
    replay(true, nullptr, 1, plan.c_str());
    EXPECT_GT(privatized.value(), 0u);
    reg.setEnabled(false);
}

namespace {

/** Three cores, each mapping the same 16-byte buffer into WRAM and
 * MRAM behind an 8-byte allocation, as region 0 and region 1. */
struct RegionRig
{
    std::shared_ptr<uint8_t[]> bytes = std::make_shared<uint8_t[]>(16);
    DpuCore cores[3];

    RegionRig()
    {
        for (uint8_t i = 0; i < 16; ++i)
            bytes[i] = static_cast<uint8_t>(0xA0 + i);
        for (DpuCore& c : cores) {
            c.wramAlloc(8);
            c.mramAlloc(8);
            EXPECT_EQ(c.mapShared(MemSpace::Wram, bytes.get(), 16, bytes)
                          .region,
                      0u);
            EXPECT_EQ(c.mapShared(MemSpace::Mram, bytes.get(), 16, bytes)
                          .region,
                      1u);
        }
    }

    /** Regions every core but @p except still reads shared. */
    void
    expectOthersShared(uint32_t except)
    {
        for (uint32_t i = 0; i < 3; ++i) {
            if (i == except)
                continue;
            for (uint32_t r : {0u, 1u}) {
                EXPECT_TRUE(cores[i].regionShared(r)) << i << "/" << r;
                EXPECT_EQ(cores[i].regionView(r), bytes.get());
            }
            uint8_t w[16], m[16];
            cores[i].hostReadWram(8, w, 16);
            cores[i].hostReadMram(8, m, 16);
            EXPECT_EQ(std::memcmp(w, bytes.get(), 16), 0);
            EXPECT_EQ(std::memcmp(m, bytes.get(), 16), 0);
        }
    }

    void
    expectTotalsUnchanged()
    {
        for (const DpuCore& c : cores) {
            EXPECT_EQ(c.wramAllocated(), 24u);
            EXPECT_EQ(c.mramAllocated(), 24u);
        }
    }
};

/** Core 1's MRAM region (8..24) after writing 0x55 at byte 12. */
void
expectPrivateMram(const DpuCore& core, const uint8_t* shared)
{
    uint8_t got[16];
    core.hostReadMram(8, got, 16);
    for (uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(got[i], i == 4 ? 0x55 : shared[i]) << i;
}

} // namespace

TEST(SharedRegion, ReadsSeeTheSharedBytes)
{
    RegionRig rig;
    DpuCore& c = rig.cores[0];
    EXPECT_EQ(c.regionCount(), 2u);
    // A read straddling the region's start sees bank zeros, then the
    // shared bytes; a DMA read sees them too.
    uint8_t got[12];
    c.hostReadMram(4, got, 12);
    EXPECT_EQ(std::memcmp(got, "\0\0\0\0", 4), 0);
    EXPECT_EQ(std::memcmp(got + 4, rig.bytes.get(), 8), 0);
    uint8_t dma[16] = {};
    c.launch(1, [&](TaskletContext& ctx) { ctx.mramRead(8, dma, 16); });
    EXPECT_EQ(std::memcmp(dma, rig.bytes.get(), 16), 0);
    // Writes outside every region privatize nothing.
    const uint8_t zero[8] = {};
    c.hostWriteMram(0, zero, 8);
    c.hostWriteWram(0, zero, 8);
    rig.expectOthersShared(3);
}

TEST(SharedRegion, HostWritePrivatizesOnlyThatCore)
{
    RegionRig rig;
    const uint8_t mark = 0x55;
    rig.cores[1].hostWriteMram(12, &mark, 1);
    EXPECT_FALSE(rig.cores[1].regionShared(1));
    EXPECT_TRUE(rig.cores[1].regionShared(0)); // WRAM untouched
    expectPrivateMram(rig.cores[1], rig.bytes.get());
    rig.expectOthersShared(1);
    rig.expectTotalsUnchanged();
}

TEST(SharedRegion, DmaWritePrivatizesOnlyThatCore)
{
    RegionRig rig;
    alignas(8) uint8_t block[8];
    std::memcpy(block, rig.bytes.get(), 8);
    block[4] = 0x55;
    rig.cores[1].launch(1, [&](TaskletContext& ctx) {
        ctx.mramWrite(8, block, 8);
    });
    EXPECT_FALSE(rig.cores[1].regionShared(1));
    expectPrivateMram(rig.cores[1], rig.bytes.get());
    rig.expectOthersShared(1);
    rig.expectTotalsUnchanged();
}

TEST(SharedRegion, RawPointerWritePrivatizesOnlyThatCore)
{
    RegionRig rig;
    rig.cores[1].wramData()[12] = 0x55;
    rig.cores[1].mramData()[12] = 0x55;
    EXPECT_FALSE(rig.cores[1].regionShared(0));
    EXPECT_FALSE(rig.cores[1].regionShared(1));
    uint8_t got[16];
    rig.cores[1].hostReadWram(8, got, 16);
    for (uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(got[i], i == 4 ? 0x55 : rig.bytes[i]) << i;
    expectPrivateMram(rig.cores[1], rig.bytes.get());
    rig.expectOthersShared(1);
    rig.expectTotalsUnchanged();
}

TEST(SharedRegion, RollbackDropsRegionsAndAllocations)
{
    RegionRig rig;
    DpuCore& c = rig.cores[0];
    DpuCore::AllocMark mark = c.allocMark();
    c.mapShared(MemSpace::Mram, rig.bytes.get(), 16, rig.bytes);
    c.wramAlloc(64);
    EXPECT_EQ(c.regionCount(), 3u);
    c.rollback(mark);
    EXPECT_EQ(c.regionCount(), 2u);
    EXPECT_EQ(c.wramAllocated(), 24u);
    EXPECT_EQ(c.mramAllocated(), 24u);
    // The next mapping lands where the rolled-back one did.
    DpuCore::Mapping m =
        c.mapShared(MemSpace::Mram, rig.bytes.get(), 16, rig.bytes);
    EXPECT_EQ(m.addr, 24u);
    EXPECT_EQ(m.region, 2u);
}
