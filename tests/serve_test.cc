/**
 * @file
 * pimserve tests: batch coalescing boundaries, overlap accounting
 * identities of the double-buffered pipeline, LUT-cache behavior,
 * determinism across simulation thread counts, fault-armed
 * degradation, and the overlapped drive loop (threaded runs match
 * the serial reference; errors leave nothing running).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pimsim/obs/journal.h"
#include "pimsim/serve/auto_tuner.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/thread_pool.h"
#include "pimsim/topology.h"
#include "transpim/auto_tuner.h"
#include "transpim/harness.h"
#include "transpim/serve_glue.h"

using namespace tpl;
using namespace tpl::sim;
using namespace tpl::transpim;

namespace {

serve::TableKey
keyOf(uint64_t hash)
{
    serve::TableKey k;
    k.hash = hash;
    k.label = "k" + std::to_string(hash);
    return k;
}

serve::Request
makeRequest(const serve::TableKey& key, const float* in, float* out,
            uint64_t elements)
{
    serve::Request r;
    r.table = key;
    r.input = in;
    r.output = out;
    r.elements = elements;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// BatchQueue coalescing boundaries.

TEST(BatchQueue, ClosedEmptyQueueYieldsNoWave)
{
    serve::BatchQueue q;
    q.close();
    EXPECT_FALSE(q.popWave(1024).has_value());
    // push after close is rejected.
    float x = 0, y = 0;
    EXPECT_EQ(q.push(makeRequest(keyOf(1), &x, &y, 1)), 0u);
    EXPECT_EQ(q.totalPushed(), 0u);
}

TEST(BatchQueue, SingleRequestBecomesOneWave)
{
    serve::BatchQueue q;
    std::vector<float> in(100), out(100);
    uint64_t id =
        q.push(makeRequest(keyOf(7), in.data(), out.data(), 100));
    EXPECT_NE(id, 0u);
    q.close();

    auto w = q.popWave(256);
    ASSERT_TRUE(w.has_value());
    ASSERT_EQ(w->items.size(), 1u);
    EXPECT_EQ(w->items[0].requestId, id);
    EXPECT_EQ(w->items[0].elements, 100u);
    EXPECT_EQ(w->requestsClosed, 1u);
    EXPECT_FALSE(q.popWave(256).has_value());
}

TEST(BatchQueue, OversizedRequestIsConsumedIncrementally)
{
    serve::BatchQueue q;
    std::vector<float> in(1000), out(1000);
    q.push(makeRequest(keyOf(7), in.data(), out.data(), 1000));
    q.close();

    uint64_t seen = 0;
    int waves = 0;
    while (auto w = q.popWave(256)) {
        ASSERT_EQ(w->items.size(), 1u);
        // Spans advance in place over the original buffers.
        EXPECT_EQ(w->items[0].input, in.data() + seen);
        EXPECT_EQ(w->items[0].output, out.data() + seen);
        seen += w->items[0].elements;
        ++waves;
    }
    EXPECT_EQ(seen, 1000u);
    EXPECT_EQ(waves, 4); // 256 + 256 + 256 + 232
}

TEST(BatchQueue, CoalescesOnlyMatchingTables)
{
    serve::BatchQueue q;
    std::vector<float> buf(400);
    q.push(makeRequest(keyOf(1), buf.data(), buf.data(), 100));
    q.push(makeRequest(keyOf(2), buf.data(), buf.data(), 50));
    q.push(makeRequest(keyOf(1), buf.data(), buf.data(), 60));
    q.close();

    auto w1 = q.popWave(256);
    ASSERT_TRUE(w1.has_value());
    EXPECT_EQ(w1->table.hash, 1u);
    ASSERT_EQ(w1->items.size(), 2u); // both key-1 requests coalesce
    EXPECT_EQ(w1->elements(), 160u);

    auto w2 = q.popWave(256);
    ASSERT_TRUE(w2.has_value());
    EXPECT_EQ(w2->table.hash, 2u);
    EXPECT_EQ(w2->elements(), 50u);
    EXPECT_FALSE(q.popWave(256).has_value());
}

TEST(BatchQueue, ZeroBudgetStillMakesProgress)
{
    serve::BatchQueue q;
    std::vector<float> buf(8);
    q.push(makeRequest(keyOf(1), buf.data(), buf.data(), 8));
    q.close();
    auto w = q.popWave(0); // treated as budget 1
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->elements(), 1u);
}

TEST(BatchQueue, ConcurrentProducersLoseNothing)
{
    serve::BatchQueue q;
    constexpr int kProducers = 8;
    constexpr int kPerProducer = 50;
    std::vector<float> buf(64);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(makeRequest(keyOf(3), buf.data(), buf.data(),
                                   4));
        });
    for (auto& t : producers)
        t.join();
    q.close();

    EXPECT_EQ(q.totalPushed(),
              static_cast<uint64_t>(kProducers) * kPerProducer);
    uint64_t elements = 0;
    uint64_t waves = 0;
    while (auto w = q.popWave(64)) {
        elements += w->elements();
        ++waves;
    }
    EXPECT_EQ(elements, 4u * kProducers * kPerProducer);
    EXPECT_GE(waves, elements / 64);
}

namespace {

/**
 * Reference model of the queue: one shared FIFO that every pop
 * rescans from its head, absorbing the requests that match the
 * oldest one's table and tenant. This is the original BatchQueue
 * sweep, kept verbatim as the oracle for the per-lane queue.
 */
class DequeSweepOracle
{
  public:
    void
    push(serve::Request r)
    {
        r.id = nextId_++;
        queue_.push_back(std::move(r));
    }

    bool empty() const { return queue_.empty(); }
    size_t depth() const { return queue_.size(); }

    uint64_t
    queuedElements() const
    {
        uint64_t n = 0;
        for (const serve::Request& r : queue_)
            n += r.elements;
        return n;
    }

    serve::Wave
    popWave(uint64_t maxElements)
    {
        const uint64_t budget = std::max<uint64_t>(maxElements, 1);
        serve::Wave wave;
        wave.table = queue_.front().table;
        wave.tenant = queue_.front().tenant;
        uint64_t taken = 0;
        for (auto it = queue_.begin(); it != queue_.end();) {
            if (!(it->table == wave.table) ||
                it->tenant != wave.tenant) {
                ++it;
                continue;
            }
            if (it->elements == 0) {
                ++wave.requestsClosed;
                it = queue_.erase(it);
                continue;
            }
            if (taken == budget)
                break;
            uint64_t take = std::min(it->elements, budget - taken);
            const bool wholeTail = take == it->elements;
            wave.items.push_back({it->id, it->input, it->output, take,
                                  it->arrivalSeconds, wholeTail});
            taken += take;
            if (wholeTail) {
                ++wave.requestsClosed;
                it = queue_.erase(it);
            } else {
                it->input += take;
                it->output += take;
                it->elements -= take;
                ++it;
            }
        }
        return wave;
    }

  private:
    std::deque<serve::Request> queue_;
    uint64_t nextId_ = 1;
};

void
expectSameWave(const serve::Wave& got, const serve::Wave& want)
{
    EXPECT_EQ(got.table.hash, want.table.hash);
    EXPECT_EQ(got.table.label, want.table.label);
    EXPECT_EQ(got.tenant, want.tenant);
    EXPECT_EQ(got.requestsClosed, want.requestsClosed);
    ASSERT_EQ(got.items.size(), want.items.size());
    for (size_t i = 0; i < got.items.size(); ++i) {
        const serve::WaveItem& g = got.items[i];
        const serve::WaveItem& w = want.items[i];
        EXPECT_EQ(g.requestId, w.requestId) << "item " << i;
        EXPECT_EQ(g.input, w.input) << "item " << i;
        EXPECT_EQ(g.output, w.output) << "item " << i;
        EXPECT_EQ(g.elements, w.elements) << "item " << i;
        EXPECT_EQ(g.arrivalSeconds, w.arrivalSeconds) << "item " << i;
        EXPECT_EQ(g.last, w.last) << "item " << i;
    }
}

} // namespace

TEST(BatchQueue, LaneSweepMatchesDequeSweepOracle)
{
    // Seeded random traces over three tables and two tenants, with
    // pushes interleaved between pops so lanes drain and refill.
    // Every fourth request is empty (and so often lands right behind
    // a request the budget cuts short), and sizes reach well past the
    // small budgets.
    std::vector<float> buf(1 << 16);
    const uint64_t budgets[] = {0, 1, 7, 64, 1ull << 40};
    // Waves cut short inside a request that also closed empty
    // requests: the traces must actually reach that corner.
    uint64_t partialWithEmpties = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        std::mt19937_64 rng(seed);
        serve::BatchQueue q;
        DequeSweepOracle oracle;
        uint64_t label = 0;
        auto pushSome = [&](uint32_t n) {
            for (uint32_t i = 0; i < n; ++i) {
                serve::Request r;
                r.table.hash = 1 + rng() % 3;
                // Labels differ within one hash: the wave must take
                // the label of its lane's front request.
                r.table.label = "k" + std::to_string(r.table.hash) +
                                "#" + std::to_string(label++);
                r.tenant = rng() % 2;
                switch (rng() % 4) {
                  case 0: r.elements = 0; break;
                  case 1: r.elements = 1 + rng() % 300; break;
                  default: r.elements = 1 + rng() % 16; break;
                }
                uint64_t off = rng() % (buf.size() - 512);
                r.input = buf.data() + off;
                r.output = buf.data() + off + 1;
                r.arrivalSeconds = static_cast<double>(rng() % 1000);
                oracle.push(r);
                q.push(std::move(r));
            }
        };
        auto popOne = [&](uint64_t budget) {
            auto got = q.popWave(budget);
            ASSERT_TRUE(got.has_value());
            expectSameWave(*got, oracle.popWave(budget));
            uint32_t tails = 0;
            for (const serve::WaveItem& it : got->items)
                tails += it.last;
            if (!got->items.empty() && !got->items.back().last &&
                got->requestsClosed > tails)
                ++partialWithEmpties;
            EXPECT_EQ(q.depth(), oracle.depth());
            EXPECT_EQ(q.queuedElements(), oracle.queuedElements());
        };

        for (int round = 0; round < 30; ++round) {
            pushSome(static_cast<uint32_t>(rng() % 40));
            for (uint64_t pops = rng() % 40; pops > 0 && !oracle.empty();
                 --pops) {
                popOne(budgets[rng() % 5]);
                if (HasFatalFailure())
                    return;
            }
        }
        q.close();
        while (!oracle.empty()) {
            popOne(budgets[rng() % 5]);
            if (HasFatalFailure())
                return;
        }
        EXPECT_FALSE(q.popWave(1).has_value()) << "seed " << seed;
    }
    EXPECT_GT(partialWithEmpties, 0u);
}

TEST(BatchQueue, PopCostScalesLinearlyWithQueueLength)
{
    // A two-pass phased trace like the fleet demo's — same-table
    // phases cycling over four tables, 8-24 elements per request,
    // the second pass repeating the first — drained through popWave
    // alone at one rank's wave budget. Phases are a fixed 512
    // requests, each its own tenant, so the phase count grows with
    // the trace. Doubling the trace must at most roughly double the
    // drain time. A queue that sweeps one shared FIFO goes ~4x here:
    // every first-pass phase's wave reaches its second-pass twin and
    // erases it from the middle of the queue, one O(queue) erase per
    // request. The drain runs on this thread alone, so it is timed on
    // the thread's CPU clock: time spent descheduled while the rest of
    // the suite runs in parallel would otherwise swamp a few-ms drain.
    const uint64_t budget = 64 * 512;
    auto threadSeconds = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    };
    auto drainSeconds = [&](uint32_t requests) {
        std::mt19937_64 rng(requests);
        serve::BatchQueue q;
        float x = 0.0f;
        for (uint32_t i = 0; i < requests; ++i) {
            const uint32_t phase = (i % (requests / 2)) / 512;
            serve::Request r;
            r.table = keyOf(phase % 4);
            r.tenant = phase;
            r.input = &x;
            r.output = &x;
            r.elements = 8 + rng() % 17;
            q.push(std::move(r));
        }
        q.close();
        const double start = threadSeconds();
        while (q.popWave(budget))
            ;
        return threadSeconds() - start;
    };
    const uint32_t n = 100000;
    double one = 1e30, two = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        one = std::min(one, drainSeconds(n));
        two = std::min(two, drainSeconds(2 * n));
    }
    EXPECT_LE(two / one, 3.0) << "N: " << one << " s, 2N: " << two
                              << " s";
}

// ---------------------------------------------------------------------
// Pipeline accounting identities.

TEST(ServePipeline, PipelinedNeverSlowerThanSyncAndSyncMatchesSum)
{
    BatchedOptions opts;
    opts.dpus = 8;
    opts.tasklets = 8;
    opts.perDpuElements = 256;
    opts.requests = 4;
    opts.elementsPerRequest = 2048; // 4 waves of 2048
    MethodSpec spec; // interpolated L-LUT, WRAM
    BatchedResult res =
        runBatchedThroughput(Function::Sin, spec, opts);

    ASSERT_TRUE(res.feasible);
    EXPECT_TRUE(res.report.complete);
    EXPECT_TRUE(res.outputsMatch);
    EXPECT_GE(res.report.waves, 4u);

    // Overlap can only help: the pipelined makespan never exceeds
    // the same legs issued back to back.
    EXPECT_LE(res.report.modeledSeconds,
              res.report.syncSeconds * (1.0 + 1e-12));

    // syncSeconds is exactly the sum of every wave's leg durations.
    double legs = 0.0;
    for (const serve::WaveStats& w : res.report.waveStats)
        legs += w.broadcastSeconds + w.scatterSeconds +
                w.computeSeconds + w.gatherSeconds;
    EXPECT_EQ(res.report.syncSeconds, legs);
    EXPECT_EQ(res.report.speedup(),
              res.report.syncSeconds / res.report.modeledSeconds);
}

TEST(ServePipeline, CyclePartitionStaysExactOnPipelinedPath)
{
    // Drive a pipeline directly and check the obs invariant on every
    // core's LaunchStats afterwards: per-class instruction sums equal
    // the instruction total, and adding stalls gives the cycles.
    sim::PimSystem sys(4);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    const uint32_t elements = 4096;
    std::vector<float> in(elements), out(elements, 0.0f);
    for (uint32_t i = 0; i < elements; ++i)
        in[i] = 6.28f * static_cast<float>(i) / elements;

    serve::BatchQueue queue;
    queue.push(makeRequest(key, in.data(), out.data(), elements));
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = 256; // 4096 / (4*256) = 4 waves
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);
    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.waves, 4u);

    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        const LaunchStats& st = sys.dpu(d).lastLaunch();
        ASSERT_GT(st.cycles, 0u);
        uint64_t classSum = 0;
        for (uint64_t c : st.classInstructions)
            classSum += c;
        EXPECT_EQ(classSum, st.totalInstructions);
        EXPECT_EQ(classSum + st.stallCycles, st.cycles);
    }
}

TEST(ServePipeline, OversizedWaveBuffersThrowInsteadOfAliasing)
{
    // 2^30 floats per buffer is 4 GiB: a 32-bit byte count wraps to
    // zero and lands all four per-DPU buffers on one address.
    sim::PimSystem sys(8);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    std::vector<float> in(4096, 0.5f), out(4096, 0.0f);
    serve::BatchQueue queue;
    queue.push(makeRequest(key, in.data(), out.data(), 4096));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 1u << 30;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    EXPECT_THROW(pipeline.run(queue), std::bad_alloc);
}

TEST(ServePipeline, UnknownTableIsDroppedNotServed)
{
    sim::PimSystem sys(2);
    EvaluatorCatalog catalog; // empty: nothing registered
    std::vector<float> in(64), out(64, -1.0f);
    serve::BatchQueue queue;
    queue.push(makeRequest(keyOf(999), in.data(), out.data(), 64));
    queue.close();

    serve::ServePipeline pipeline(sys, catalog.provider());
    serve::ServeReport rep = pipeline.run(queue);
    EXPECT_FALSE(rep.complete);
    EXPECT_EQ(rep.infeasibleElements, 64u);
    EXPECT_EQ(rep.waves, 0u);
    for (float v : out)
        EXPECT_EQ(v, -1.0f); // outputs untouched
}

// ---------------------------------------------------------------------
// LUT cache.

TEST(ServePipeline, RepeatedConfigurationHitsTableCache)
{
    sim::PimSystem sys(4);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    const uint32_t elements = 2048; // 2 waves at 4 * 256
    std::vector<float> in(elements, 1.0f), out(elements);
    serve::BatchQueue queue;
    queue.push(makeRequest(key, in.data(), out.data(), elements));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 256;
    popts.numTasklets = 8;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);

    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.waves, 2u);
    EXPECT_EQ(rep.cacheMisses, 1u); // first wave generates + broadcasts
    EXPECT_EQ(rep.cacheHits, 1u);   // second wave reuses the tables
    // Only the miss pays a broadcast.
    ASSERT_EQ(rep.waveStats.size(), 2u);
    EXPECT_TRUE(rep.waveStats[0].tableMiss);
    EXPECT_GT(rep.waveStats[0].broadcastSeconds, 0.0);
    EXPECT_FALSE(rep.waveStats[1].tableMiss);
    EXPECT_EQ(rep.waveStats[1].broadcastSeconds, 0.0);
}

TEST(ServePipeline, DistinctConfigurationsMissSeparately)
{
    sim::PimSystem sys(2);
    EvaluatorCatalog catalog;
    MethodSpec llut;
    MethodSpec mlut;
    mlut.method = Method::MLut;
    serve::TableKey k1 = catalog.add(Function::Sin, llut);
    serve::TableKey k2 = catalog.add(Function::Sin, mlut);
    ASSERT_NE(k1.hash, k2.hash);

    std::vector<float> in(256, 0.5f), out(256);
    serve::BatchQueue queue;
    queue.push(makeRequest(k1, in.data(), out.data(), 64));
    queue.push(makeRequest(k2, in.data(), out.data() + 64, 64));
    queue.push(makeRequest(k1, in.data(), out.data() + 128, 64));
    queue.push(makeRequest(k2, in.data(), out.data() + 192, 64));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 64; // one wave per key visit
    popts.numTasklets = 4;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);

    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.cacheMisses, 2u);
    EXPECT_EQ(rep.cacheHits + rep.cacheMisses, rep.waves);
}

// ---------------------------------------------------------------------
// Determinism across simulation thread counts.

TEST(ServePipeline, BitIdenticalAcrossSimThreadCounts)
{
    BatchedOptions base;
    base.dpus = 8;
    base.tasklets = 8;
    base.perDpuElements = 128;
    base.requests = 3;
    base.elementsPerRequest = 1024;
    MethodSpec spec;

    BatchedResult ref;
    bool first = true;
    for (uint32_t threads : {1u, 4u, 16u}) {
        BatchedOptions opts = base;
        opts.simThreads = threads;
        BatchedResult res =
            runBatchedThroughput(Function::Sin, spec, opts);
        ASSERT_TRUE(res.report.complete);
        ASSERT_TRUE(res.outputsMatch);
        if (first) {
            ref = res;
            first = false;
            continue;
        }
        // Modeled quantities are bit-identical, not just close.
        EXPECT_EQ(res.report.computeCycles, ref.report.computeCycles);
        EXPECT_EQ(res.report.modeledSeconds,
                  ref.report.modeledSeconds);
        EXPECT_EQ(res.report.syncSeconds, ref.report.syncSeconds);
    }
}

// ---------------------------------------------------------------------
// Fault-armed pipeline: degrade, never deadlock.

TEST(ServePipeline, MaskedDpuMidPipelineReshardsItsWave)
{
    auto plan = fault::FaultPlan::parse(
        "seed 99\nfault kind=dpu-hard-fail dpu=2 prob=1\n");
    ASSERT_TRUE(plan.has_value());

    // One request is a single wave: DPU 2 then fails during the
    // *last* wave, and its slice must still be retried.
    for (uint32_t requests : {1u, 3u}) {
        SCOPED_TRACE("requests=" + std::to_string(requests));
        BatchedOptions opts;
        opts.dpus = 8;
        opts.tasklets = 8;
        opts.perDpuElements = 128;
        opts.requests = requests;
        opts.elementsPerRequest = 1024;
        opts.plan = plan;
        MethodSpec spec;
        BatchedResult res =
            runBatchedThroughput(Function::Sin, spec, opts);

        // DPU 2 hard-fails its first launch; its slices re-shard onto
        // the seven survivors and the run still completes.
        ASSERT_TRUE(res.report.complete);
        ASSERT_EQ(res.report.failedDpus.size(), 1u);
        EXPECT_EQ(res.report.failedDpus[0], 2u);
        EXPECT_GT(res.report.reshardedElements, 0u);
        EXPECT_EQ(res.report.droppedElements, 0u);

        // The flat path and a single-rank fleet degrade identically.
        auto serveWith = [&](const Topology* topo) {
            sim::PimSystem sys(opts.dpus);
            sys.armFaults(*plan);
            EvaluatorCatalog catalog;
            serve::TableKey key = catalog.add(Function::Sin, spec);
            const uint64_t total =
                static_cast<uint64_t>(requests) *
                opts.elementsPerRequest;
            std::vector<float> in(total, 0.5f), out(total);
            serve::BatchQueue queue;
            for (uint32_t r = 0; r < requests; ++r)
                queue.push(makeRequest(
                    key, in.data() + r * opts.elementsPerRequest,
                    out.data() + r * opts.elementsPerRequest,
                    opts.elementsPerRequest));
            queue.close();
            serve::PipelineOptions popts;
            popts.numTasklets = opts.tasklets;
            popts.perDpuElements = opts.perDpuElements;
            popts.topology = topo;
            serve::ServePipeline pipeline(sys, catalog.provider(),
                                          popts);
            return pipeline.run(queue);
        };
        Topology single{1, 1, opts.dpus};
        serve::ServeReport flat = serveWith(nullptr);
        serve::ServeReport fleet = serveWith(&single);
        EXPECT_TRUE(flat.complete);
        EXPECT_EQ(fleet.complete, flat.complete);
        EXPECT_EQ(fleet.reshardedElements, flat.reshardedElements);
        EXPECT_EQ(fleet.droppedElements, flat.droppedElements);
        EXPECT_EQ(flat.reshardedElements,
                  res.report.reshardedElements);
    }
}

TEST(ServePipeline, AllCoresDeadReportsIncompleteInsteadOfHanging)
{
    auto plan = fault::FaultPlan::parse(
        "seed 7\nfault kind=dpu-hard-fail prob=1\n"); // every DPU
    ASSERT_TRUE(plan.has_value());

    sim::PimSystem sys(2);
    sys.armFaults(*plan);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    std::vector<float> in(512, 0.25f), out(512);
    serve::BatchQueue queue;
    queue.push(makeRequest(key, in.data(), out.data(), 512));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 128;
    popts.numTasklets = 4;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue); // must return
    EXPECT_FALSE(rep.complete);
    EXPECT_GT(rep.droppedElements, 0u);
    EXPECT_EQ(sys.healthyDpus(), 0u);
}

// Latency records depend on the requests served, not on where the
// queue's ids start: the pipeline indexes its per-request accounting
// by id - firstId. A retry wave (armed plan) revisits requests after
// another wave has begun, and must still count each request once.
TEST(ServePipeline, LatencyRecordsIndependentOfRequestIdBase)
{
    auto plan = fault::FaultPlan::parse(
        "seed 99\nfault kind=dpu-hard-fail dpu=2 prob=1\n");
    ASSERT_TRUE(plan.has_value());
    MethodSpec spec;
    constexpr uint32_t kRequests = 12;

    struct Served
    {
        serve::ServeReport rep;
        std::vector<obs::RequestLatency> lats;
        std::vector<obs::JournalEvent> events;
        uint64_t firstId = 0;
    };
    // @p consumed requests are pushed and popped before the trace,
    // as a queue that already fed an earlier run would have.
    auto serveTrace = [&](bool faults, uint32_t consumed) {
        sim::PimSystem sys(8);
        if (faults)
            sys.armFaults(*plan);
        EvaluatorCatalog catalog;
        const serve::TableKey keys[2] = {
            catalog.add(Function::Sin, spec),
            catalog.add(Function::Cos, spec)};
        serve::BatchQueue queue;
        float x = 0.5f, y = 0.0f;
        for (uint32_t i = 0; i < consumed; ++i)
            queue.push(makeRequest(keys[0], &x, &y, 1));
        while (queue.depth() > 0)
            queue.popWave(1024);

        std::vector<uint32_t> sizes;
        uint64_t total = 0;
        for (uint32_t r = 0; r < kRequests; ++r) {
            sizes.push_back(100 + (r * 83) % 300);
            total += sizes.back();
        }
        std::vector<float> in(total), out(total);
        for (uint64_t i = 0; i < total; ++i)
            in[i] = 0.05f + 0.9f * static_cast<float>(i % 97) / 97.0f;
        Served s;
        uint64_t off = 0;
        for (uint32_t r = 0; r < kRequests; ++r) {
            uint64_t id = queue.push(makeRequest(
                keys[(r / 3) % 2], in.data() + off, out.data() + off,
                sizes[r]));
            if (r == 0)
                s.firstId = id;
            off += sizes[r];
        }
        queue.close();

        obs::Journal journal;
        serve::PipelineOptions popts;
        popts.numTasklets = 4;
        popts.perDpuElements = 64; // 512-element waves over 8 DPUs
        popts.journal = &journal;
        serve::ServePipeline pipeline(sys, catalog.provider(), popts);
        s.rep = pipeline.run(queue);
        s.lats = journal.latencies();
        s.events = journal.events();
        return s;
    };

    uint64_t wavesPerMode[2] = {0, 0}; // summed over the records
    for (bool faults : {false, true}) {
        SCOPED_TRACE(faults ? "dpu-hard-fail plan" : "no plan");
        const Served fresh = serveTrace(faults, 0);
        const Served reused = serveTrace(faults, 1000);
        ASSERT_TRUE(fresh.rep.complete);
        ASSERT_TRUE(reused.rep.complete);
        EXPECT_EQ(fresh.firstId, 1u);
        EXPECT_EQ(reused.firstId, 1001u);
        EXPECT_EQ(fresh.rep.reshardedElements,
                  reused.rep.reshardedElements);
        EXPECT_EQ(fresh.rep.reshardedElements > 0, faults);

        // One record per request, in id order, identical apart from
        // the id offset.
        ASSERT_EQ(fresh.lats.size(), kRequests);
        ASSERT_EQ(reused.lats.size(), kRequests);
        for (uint32_t r = 0; r < kRequests; ++r) {
            SCOPED_TRACE("request " + std::to_string(r));
            const obs::RequestLatency& a = fresh.lats[r];
            const obs::RequestLatency& b = reused.lats[r];
            EXPECT_EQ(a.request, fresh.firstId + r);
            EXPECT_EQ(b.request, reused.firstId + r);
            EXPECT_EQ(a.table, b.table);
            EXPECT_EQ(a.elements, b.elements);
            EXPECT_EQ(a.elements, 100 + (r * 83) % 300);
            EXPECT_EQ(a.waves, b.waves);
            EXPECT_TRUE(a.complete);
            EXPECT_EQ(a.complete, b.complete);
            EXPECT_EQ(a.arrivalSeconds, b.arrivalSeconds);
            EXPECT_EQ(a.firstScatterSeconds, b.firstScatterSeconds);
            EXPECT_EQ(a.completedSeconds, b.completedSeconds);
            EXPECT_EQ(a.queueWaitSeconds, b.queueWaitSeconds);
            EXPECT_EQ(a.transferSeconds, b.transferSeconds);
            EXPECT_EQ(a.computeSeconds, b.computeSeconds);
            EXPECT_EQ(a.stallSeconds, b.stallSeconds);
        }

        // Each record's wave count is the number of distinct waves
        // that coalesced the request, and exactly one `done` closes
        // it — also when a wave revisits the request after another
        // wave began (requests straddling waves of a swept lane, and
        // with the plan armed, retry waves).
        bool revisitedLater = false;
        for (const Served* s : {&fresh, &reused}) {
            std::map<uint64_t, std::vector<uint64_t>> wavesOf;
            std::map<uint64_t, int> dones;
            for (const obs::JournalEvent& ev : s->events) {
                if (ev.kind == "coalesce")
                    wavesOf[ev.request].push_back(ev.wave);
                else if (ev.kind == "done")
                    ++dones[ev.request];
            }
            for (const obs::RequestLatency& lat : s->lats) {
                std::vector<uint64_t> w = wavesOf[lat.request];
                std::sort(w.begin(), w.end());
                EXPECT_EQ(std::unique(w.begin(), w.end()), w.end());
                EXPECT_EQ(lat.waves, w.size());
                EXPECT_EQ(dones[lat.request], 1);
                for (size_t i = 1; i < w.size(); ++i)
                    revisitedLater = revisitedLater || w[i] > w[i - 1] + 1;
            }
        }
        EXPECT_TRUE(revisitedLater);
        for (const obs::RequestLatency& lat : fresh.lats)
            wavesPerMode[faults] += lat.waves;
    }
    // The retry waves rode again with requests they had served.
    EXPECT_GT(wavesPerMode[1], wavesPerMode[0]);
}

TEST(ServePipeline, FaultFreeOutputsMatchReference)
{
    BatchedOptions opts;
    opts.dpus = 4;
    opts.tasklets = 8;
    opts.perDpuElements = 256;
    opts.requests = 2;
    opts.elementsPerRequest = 2048;
    MethodSpec spec;
    BatchedResult res =
        runBatchedThroughput(Function::Sin, spec, opts);
    ASSERT_TRUE(res.report.complete);
    // Every served output equals the host evaluator's, bit for bit.
    EXPECT_TRUE(res.outputsMatch);
    // The serve path evaluates with the same kernels as the
    // microbenchmark; accuracy must be L-LUT-grade, not garbage.
    // (interp. L-LUT 2^12 RMSE is ~2.5e-7; 1e-5 catches data-path
    // bugs like wrong slicing offsets without being flaky.)
    MicrobenchOptions mopts;
    mopts.elements = 1024;
    MicrobenchResult mb =
        runMicrobench(Function::Sin, spec, mopts);
    EXPECT_LT(mb.error.rmse, 1e-5);
}

// ---------------------------------------------------------------------
// Acceptance: pipelined beats the no-overlap baseline by >= 1.3x on
// the L-LUT sin sweep (>= 4 waves, 64 DPUs).

TEST(ServeAcceptance, PipelinedBeatsSyncByThirtyPercent)
{
    BatchedOptions opts; // defaults: 64 DPUs, 5 x 32768 elements
    MethodSpec spec;     // interpolated L-LUT (WRAM, 2^12)
    BatchedResult res =
        runBatchedThroughput(Function::Sin, spec, opts);

    ASSERT_TRUE(res.feasible);
    ASSERT_TRUE(res.report.complete);
    EXPECT_TRUE(res.outputsMatch);
    EXPECT_GE(res.report.waves, 4u);
    EXPECT_EQ(res.report.failedDpus.size(), 0u);

    EXPECT_GE(res.report.speedup(), 1.3);
    EXPECT_GT(res.report.overlapFraction(), 0.0);
    EXPECT_GT(res.report.elementsPerSecond(), 0.0);
    EXPECT_GT(res.cyclesPerElement, 0.0);
}

// ---------------------------------------------------------------------
// Fleet property: with a topology armed, the fleet clock is exactly
// the slowest rank's clock, and the per-rank rows partition the
// report's cycle totals — cross-checked against every core's own
// LaunchStats partition.

TEST(ServePipeline, FleetMakespanIsMaxOfRankTimelines)
{
    sim::Topology topo{2, 2, 2}; // 4 ranks x 2 DPUs on 2 channels
    sim::PimSystem sys(topo.numDpus());
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey sin = catalog.add(Function::Sin, spec);
    serve::TableKey cos = catalog.add(Function::Cos, spec);

    const uint32_t elements = 6144;
    std::vector<float> in(elements), out(elements, 0.0f);
    for (uint32_t i = 0; i < elements; ++i)
        in[i] = 3.0f * static_cast<float>(i) / elements;

    serve::BatchQueue queue;
    queue.push(
        makeRequest(sin, in.data(), out.data(), elements / 2));
    queue.push(makeRequest(cos, in.data() + elements / 2,
                           out.data() + elements / 2,
                           elements / 2));
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = 128;
    popts.topology = &topo;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);
    ASSERT_TRUE(rep.complete);
    ASSERT_EQ(rep.rankStats.size(), topo.numRanks());

    double maxSpan = 0.0;
    uint64_t rankCycles = 0;
    uint64_t rankElements = 0;
    for (const serve::RankStats& r : rep.rankStats) {
        maxSpan = std::max(maxSpan, r.makespanSeconds);
        rankCycles += r.computeCycles;
        rankElements += r.elements;
        EXPECT_LE(r.makespanSeconds, rep.modeledSeconds);
    }
    // Exactly ==, not NEAR: both sides read the same timeline.
    EXPECT_EQ(rep.modeledSeconds, maxSpan);
    EXPECT_EQ(rankCycles, rep.computeCycles);
    EXPECT_EQ(rankElements, rep.elements);

    // Per-core cross-check: each core's last launch still satisfies
    // the exact cycle partition under the fleet schedule.
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        const LaunchStats& st = sys.dpu(d).lastLaunch();
        if (st.cycles == 0)
            continue; // a core the placement never used
        uint64_t classSum = 0;
        for (uint64_t c : st.classInstructions)
            classSum += c;
        EXPECT_EQ(classSum, st.totalInstructions);
        EXPECT_EQ(classSum + st.stallCycles, st.cycles);
    }
}

// ---------------------------------------------------------------------
// Overlapped execution: a wave's kernels run on the pool while the
// host finishes the previous wave and begins the next, and commits
// land in wave order — so a threaded run is bit-identical to the
// serial reference (TPL_SIM_THREADS=1), where the kernels run inside
// the commit. Both are also bit-identical to the drive loop with
// overlap off, which an armed fault plan forces: a plan that never
// fires changes no modeled number, only the loop's order.

namespace {

/** One request of a differential scenario. */
struct MixRequest
{
    Function fn = Function::Sin;
    MethodSpec spec;
    uint32_t elements = 0;
    uint64_t tenant = 0;
};

struct Scenario
{
    uint32_t dpus = 16;
    uint32_t perDpuElements = 64;
    std::optional<Topology> topology;
    std::optional<fault::FaultPlan> plan;
    bool tuner = false;
    uint64_t mramBudgetBytes = 0;
    std::map<uint64_t, serve::TenantSla> slas;
    std::optional<serve::WaveCost> cost; ///< book entry for every table
    std::vector<MixRequest> requests;
};

/** Everything a run produces that overlap must not change. */
struct ScenarioRun
{
    serve::ServeReport rep;
    std::vector<float> out;
    std::string journal;
    std::vector<serve::TuneDecision> decisions;
};

/** Serve @p sc serially (@p threads == 1) or on a dedicated pool of
 * @p threads; @p overlapOff arms a plan that never fires when the
 * scenario has none. */
ScenarioRun
serveScenario(const Scenario& sc, uint32_t threads,
              bool overlapOff = false)
{
    ThreadPool pool(threads);
    PimSystem sys(sc.dpus);
    if (threads == 1)
        sys.setSimThreads(1);
    else
        sys.setThreadPool(&pool);
    if (sc.plan)
        sys.armFaults(*sc.plan);
    else if (overlapOff)
        sys.armFaults(*fault::FaultPlan::parse(
            "seed 1\nfault kind=dpu-hard-fail prob=0\n"));

    EvaluatorCatalog catalog;
    uint64_t total = 0;
    for (const MixRequest& r : sc.requests)
        total += r.elements;
    std::vector<float> in(total);
    for (uint64_t i = 0; i < total; ++i)
        in[i] = 0.01f + 0.9f * static_cast<float>((i * 37) % 1000) /
                            1000.0f;
    ScenarioRun run;
    run.out.assign(total, 0.0f);

    obs::Journal journal;
    serve::BatchQueue queue;
    queue.setJournal(&journal);
    serve::CostBook book;
    uint64_t off = 0;
    for (const MixRequest& r : sc.requests) {
        serve::Request q = makeRequest(catalog.add(r.fn, r.spec),
                                       in.data() + off,
                                       run.out.data() + off, r.elements);
        q.tenant = r.tenant;
        if (sc.cost)
            book.set(q.table, *sc.cost);
        queue.push(q);
        off += r.elements;
    }
    queue.close();

    std::optional<OnlineAutoTuner> tuner;
    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = sc.perDpuElements;
    popts.journal = &journal;
    if (sc.topology)
        popts.topology = &*sc.topology;
    if (sc.cost)
        popts.costBook = &book;
    if (sc.tuner) {
        AutoTunerOptions topts;
        topts.exploreElements = 256;
        topts.mramBudgetBytes = sc.mramBudgetBytes;
        tuner.emplace(catalog, topts);
        for (const auto& [tenant, sla] : sc.slas)
            tuner->setTenantSla(tenant, sla);
        popts.autoTuner = &*tuner;
    }
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    run.rep = pipeline.run(queue);
    run.journal = journal.toJsonl();
    if (tuner)
        run.decisions = tuner->decisions();
    return run;
}

void
expectSameRun(const ScenarioRun& a, const ScenarioRun& b)
{
    const serve::ServeReport& x = a.rep;
    const serve::ServeReport& y = b.rep;
    EXPECT_EQ(x.complete, y.complete);
    EXPECT_EQ(x.requests, y.requests);
    EXPECT_EQ(x.elements, y.elements);
    EXPECT_EQ(x.waves, y.waves);
    EXPECT_EQ(x.cacheHits, y.cacheHits);
    EXPECT_EQ(x.cacheMisses, y.cacheMisses);
    EXPECT_EQ(x.infeasibleElements, y.infeasibleElements);
    EXPECT_EQ(x.droppedElements, y.droppedElements);
    EXPECT_EQ(x.modeledSeconds, y.modeledSeconds);
    EXPECT_EQ(x.syncSeconds, y.syncSeconds);
    EXPECT_EQ(x.failedDpus, y.failedDpus);
    EXPECT_EQ(x.reshardedElements, y.reshardedElements);
    EXPECT_EQ(x.computeCycles, y.computeCycles);
    EXPECT_EQ(x.anomalousWaves, y.anomalousWaves);
    ASSERT_EQ(x.waveStats.size(), y.waveStats.size());
    for (size_t i = 0; i < x.waveStats.size(); ++i) {
        const serve::WaveStats& p = x.waveStats[i];
        const serve::WaveStats& q = y.waveStats[i];
        SCOPED_TRACE("wave " + std::to_string(i));
        EXPECT_EQ(p.elements, q.elements);
        EXPECT_EQ(p.slices, q.slices);
        EXPECT_EQ(p.tableMiss, q.tableMiss);
        EXPECT_EQ(p.broadcastSeconds, q.broadcastSeconds);
        EXPECT_EQ(p.scatterSeconds, q.scatterSeconds);
        EXPECT_EQ(p.computeSeconds, q.computeSeconds);
        EXPECT_EQ(p.gatherSeconds, q.gatherSeconds);
        EXPECT_EQ(p.maxCycles, q.maxCycles);
        EXPECT_EQ(p.totalCycles, q.totalCycles);
        EXPECT_EQ(p.retriedSlices, q.retriedSlices);
        EXPECT_EQ(p.medianCycles, q.medianCycles);
        EXPECT_EQ(p.stragglerDpus, q.stragglerDpus);
    }
    ASSERT_EQ(x.rankStats.size(), y.rankStats.size());
    for (size_t r = 0; r < x.rankStats.size(); ++r) {
        EXPECT_EQ(x.rankStats[r].waves, y.rankStats[r].waves);
        EXPECT_EQ(x.rankStats[r].elements, y.rankStats[r].elements);
        EXPECT_EQ(x.rankStats[r].computeCycles,
                  y.rankStats[r].computeCycles);
        EXPECT_EQ(x.rankStats[r].makespanSeconds,
                  y.rankStats[r].makespanSeconds);
        EXPECT_EQ(x.rankStats[r].residentTables,
                  y.rankStats[r].residentTables);
        EXPECT_EQ(x.rankStats[r].broadcasts, y.rankStats[r].broadcasts);
    }
    ASSERT_EQ(a.out.size(), b.out.size());
    EXPECT_EQ(0, std::memcmp(a.out.data(), b.out.data(),
                             a.out.size() * sizeof(float)));
    EXPECT_EQ(a.journal, b.journal);
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    for (size_t i = 0; i < a.decisions.size(); ++i) {
        EXPECT_EQ(a.decisions[i].reason, b.decisions[i].reason);
        EXPECT_EQ(a.decisions[i].toTable, b.decisions[i].toTable);
    }
}

/** A few dozen LLut requests over three tables, sized so waves
 * coalesce several requests and requests straddle waves. */
std::vector<MixRequest>
llutMix()
{
    std::vector<MixRequest> reqs;
    const Function fns[] = {Function::Sin, Function::Cos, Function::Exp};
    for (uint32_t i = 0; i < 30; ++i)
        reqs.push_back({fns[(i / 4) % 3], MethodSpec{},
                        150 + (i * 97) % 600, 0});
    return reqs;
}

/** Serve @p sc serially with overlap off, then serially and on 4-
 * and 16-thread pools with overlap on; every run must match the
 * first. @return the first run. */
ScenarioRun
expectOverlapMatchesSerial(const Scenario& sc)
{
    ScenarioRun reference = serveScenario(sc, 1, true);
    for (uint32_t threads : {1u, 4u, 16u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectSameRun(reference, serveScenario(sc, threads));
    }
    return reference;
}

} // namespace

TEST(ServeOverlap, FlatMatchesSerial)
{
    Scenario sc;
    sc.requests = llutMix();
    ScenarioRun run = expectOverlapMatchesSerial(sc);
    EXPECT_TRUE(run.rep.complete);
    EXPECT_GT(run.rep.waves, 10u);
}

TEST(ServeOverlap, FleetMatchesSerial)
{
    Scenario sc;
    sc.topology = Topology{2, 2, 8};
    sc.dpus = sc.topology->numDpus();
    sc.requests = llutMix();
    ScenarioRun run = expectOverlapMatchesSerial(sc);
    EXPECT_TRUE(run.rep.complete);
    EXPECT_EQ(run.rep.rankStats.size(), 4u);
}

TEST(ServeOverlap, TunerWithBudgetEvictionMatchesSerial)
{
    Scenario sc;
    sc.dpus = 8;
    sc.tuner = true;
    sc.mramBudgetBytes = 8 * 1024;
    sc.slas = {{1, serve::TenantSla{}}, {2, serve::TenantSla{}}};
    ASSERT_TRUE(serve::TenantSla::parse("rmse<1e-2", sc.slas[1]));
    ASSERT_TRUE(serve::TenantSla::parse("rmse<1e-2", sc.slas[2]));
    for (uint32_t i = 0; i < 32; ++i) {
        MixRequest r;
        r.fn = i % 2 ? Function::Exp : Function::Sin;
        r.spec.method = Method::Cordic;
        r.elements = 200;
        r.tenant = 1 + i % 2;
        sc.requests.push_back(r);
    }
    ScenarioRun run = expectOverlapMatchesSerial(sc);
    EXPECT_TRUE(run.rep.complete);
    bool evicted = false;
    for (const serve::TuneDecision& d : run.decisions)
        evicted = evicted || d.reason == "evict";
    EXPECT_TRUE(evicted);
}

TEST(ServeOverlap, CostBookSplitsMatchSerial)
{
    Scenario sc;
    sc.requests = llutMix();
    const uint64_t unsplit = serveScenario(sc, 1).rep.waves;
    serve::WaveCost cost;
    cost.cyclesPerElement = 64.0;
    cost.fixedCycles = 100.0;
    cost.minElements = 1;
    sc.cost = cost;
    ScenarioRun run = expectOverlapMatchesSerial(sc);
    EXPECT_TRUE(run.rep.complete);
    EXPECT_GT(run.rep.waves, unsplit); // the book split waves
}

TEST(ServeOverlap, InfeasibleDropMatchesSerial)
{
    Scenario sc;
    sc.requests = llutMix();
    MethodSpec huge; // 2^16 entries do not fit the 64 KB WRAM
    huge.log2Entries = 16;
    for (size_t i = 3; i < sc.requests.size(); i += 7)
        sc.requests[i].spec = huge;
    ScenarioRun run = expectOverlapMatchesSerial(sc);
    EXPECT_FALSE(run.rep.complete);
    EXPECT_GT(run.rep.infeasibleElements, 0u);
    EXPECT_NE(run.journal.find("no valid table binding"),
              std::string::npos);
}

TEST(ServeOverlap, FaultPlanMatchesSerial)
{
    Scenario sc;
    sc.requests = llutMix();
    for (MixRequest& r : sc.requests) // one table: no miss commits
        r.fn = Function::Sin;
    sc.plan = fault::FaultPlan::parse(
        "seed 11\n"
        "fault kind=dpu-hard-fail dpu=3 prob=1 after=4\n"
        "fault kind=dpu-straggler dpu=6 prob=1 slowdown=6\n"
        "fault kind=dma-timeout prob=0.01 stall=2000\n");
    ASSERT_TRUE(sc.plan.has_value());
    ScenarioRun run = expectOverlapMatchesSerial(sc);
    EXPECT_TRUE(run.rep.complete);
    EXPECT_EQ(run.rep.failedDpus, std::vector<uint32_t>{3});
    EXPECT_GT(run.rep.reshardedElements, 0u);
    EXPECT_GT(run.rep.anomalousWaves, 0u);
    // The failing launch's sweep masks DPU 3 before the next wave is
    // sliced, so exactly one slice is ever lost to it.
    uint32_t retried = 0;
    for (const serve::WaveStats& w : run.rep.waveStats)
        retried += w.retriedSlices;
    EXPECT_EQ(retried, 1u);
}

namespace {

/** Where a run fails. */
enum class Fail
{
    Kernel,  ///< the kernel on DPU 5 of the fourth wave throws
    Factory, ///< building that kernel throws instead
    Route,   ///< the tuner's route() throws (the provider never does)
};

/** A provider whose kernels sleep briefly and count themselves in
 * and out of @p running, failing as @p fail says. Its factory runs
 * on pool threads, so its count is atomic. */
serve::TableProvider
countingProvider(std::atomic<int>& running, Fail fail)
{
    auto built = std::make_shared<std::atomic<uint32_t>>(0);
    return [&running, fail, built](const serve::TableKey&,
                                   PimSystem&) {
        serve::TableBinding b;
        b.valid = true;
        b.makeKernel = [&running, fail,
                        built](const ShardTask& t) -> Kernel {
            const bool fourth =
                fail != Fail::Route && t.dpu == 5 && ++*built > 3;
            if (fourth && fail == Fail::Factory)
                throw std::runtime_error("factory fault");
            const bool boom = fourth && fail == Fail::Kernel;
            return [&running, boom](TaskletContext& ctx) {
                if (ctx.taskletId() != 0)
                    return;
                ++running;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(300));
                --running;
                if (boom)
                    throw std::runtime_error("kernel fault");
            };
        };
        return b;
    };
}

/** Route passes every wave through, and throws on the @p failAt-th
 * call: a host-side error while a wave is submitted. */
class ThrowingTuner final : public serve::AutoTuner
{
  public:
    explicit ThrowingTuner(uint32_t failAt) : failAt_(failAt) {}

    Routing
    route(const serve::TableKey& requested, uint64_t) override
    {
        if (++calls_ == failAt_)
            throw std::runtime_error("route fault");
        return {requested, false, {}};
    }
    void observe(const serve::WaveOutcome&) override {}
    std::vector<serve::TuneDecision>
    decisions() const override
    {
        return {};
    }

  private:
    uint32_t failAt_;
    uint32_t calls_ = 0;
};

} // namespace

TEST(ServeOverlap, ErrorsSurfaceAndLeaveNoKernelRunning)
{
    // The kernel or its factory fails on a pool thread, or route()
    // fails on the drive thread while a wave is submitted.
    for (Fail fail : {Fail::Kernel, Fail::Factory, Fail::Route}) {
        SCOPED_TRACE(fail == Fail::Kernel    ? "kernel throws"
                     : fail == Fail::Factory ? "factory throws"
                                             : "route throws");
        ThreadPool pool(4);
        PimSystem sys(8);
        sys.setThreadPool(&pool);
        std::atomic<int> running{0};
        std::vector<float> in(8 * 64 * 8, 0.5f), out(in.size());
        serve::BatchQueue queue;
        for (uint32_t r = 0; r < 8; ++r)
            queue.push(makeRequest(keyOf(1), in.data() + r * 512,
                                   out.data() + r * 512, 512));
        queue.close();
        ThrowingTuner tuner(fail == Fail::Route ? 5 : 0);
        serve::PipelineOptions popts;
        popts.numTasklets = 4;
        popts.perDpuElements = 64;
        popts.autoTuner = &tuner;
        serve::ServePipeline pipeline(
            sys, countingProvider(running, fail), popts);
        EXPECT_THROW(pipeline.run(queue), std::runtime_error);
        // Nothing of the run keeps executing on the pool...
        EXPECT_EQ(running.load(), 0);
        // ...and the pool has no job left behind.
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(100, [&](uint64_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
    }
}
