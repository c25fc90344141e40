/**
 * @file
 * Shared-table serving: EvaluatorCatalog generates each key's tables
 * once and copies them into every core, and kernels read their own
 * core's copy. Locks that against a per-core reference provider (one
 * generated evaluator per DPU) on the flat and fleet paths at 1, 4
 * and 16 simulation threads: outputs, per-wave stats and journal bytes
 * must be bit-identical, also with a WRAM soft error armed on one DPU.
 * The threaded runs use dedicated pools, so every sim thread reads the
 * one shared evaluator concurrently (the TSan tier runs this suite).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "pimsim/obs/journal.h"
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
 * L-LUT in WRAM) on 8 DPUs, flat when @p topo is null. @p threads of
 * 1 forces the serial path; more runs on a dedicated pool of that
 * size.
 */
ReplayResult
replay(bool shared, const Topology* topo, uint32_t threads,
       const char* planText = nullptr)
{
    PimSystem sys(8);
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
