/**
 * @file
 * Fleet conformance tier: the multi-rank/multi-DIMM topology model
 * and the cluster scheduler. Locks the rank-transfer scaling law
 * (lanes overlap across memory channels, serialize within one), the
 * flat-path kill switch (Topology{1,1,N} reproduces the flat
 * pipeline bit-for-bit), determinism across simulation thread
 * counts, once-per-rank table broadcasts, hot-table balancing, and
 * per-rank fault degradation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pimsim/obs/journal.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/serve/table_cache.h"
#include "pimsim/topology.h"
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

/** One synthetic request: a function index (0..3 cycle over
 * sin/cos/exp/sigmoid, all interpolated L-LUT) and a span length. */
struct Req
{
    int fn = 0;
    uint32_t elements = 0;
};

struct RunResult
{
    serve::ServeReport rep;
    std::vector<float> out;
};

const Function kFns[4] = {Function::Sin, Function::Cos, Function::Exp,
                          Function::Sigmoid};

/** The fixed deterministic input pattern of a @p reqs replay. */
std::vector<float>
traceInputs(const std::vector<Req>& reqs)
{
    uint64_t total = 0;
    for (const Req& r : reqs)
        total += r.elements;
    std::vector<float> in(total);
    for (uint64_t i = 0; i < total; ++i)
        in[i] = 0.001f +
                0.9f * static_cast<float>((i * 37) % 1000) / 1000.0f;
    return in;
}

/** Host-side evalBatch outputs of @p reqs: what a served replay must
 * reproduce bit for bit. */
std::vector<float>
hostReference(const std::vector<Req>& reqs)
{
    std::vector<float> in = traceInputs(reqs);
    std::vector<float> out(in.size());
    uint64_t off = 0;
    for (const Req& r : reqs) {
        std::span<const float> x(in.data() + off, r.elements);
        std::span<float> y(out.data() + off, r.elements);
        FunctionEvaluator::create(kFns[r.fn % 4], MethodSpec{})
            .evalBatch(x, y);
        off += r.elements;
    }
    return out;
}

/** Replay @p reqs through one ServePipeline on a fresh system.
 * @p topo == nullptr runs the flat path; inputs are a fixed
 * deterministic pattern so outputs are comparable across runs. */
RunResult
runTrace(const std::vector<Req>& reqs, uint32_t dpus,
         const Topology* topo, uint32_t perDpuElements = 64,
         uint32_t simThreads = 0, const char* planText = nullptr,
         obs::Journal* journal = nullptr)
{
    PimSystem sys(dpus);
    if (simThreads)
        sys.setSimThreads(simThreads);
    if (planText) {
        auto plan = fault::FaultPlan::parse(planText);
        EXPECT_TRUE(plan.has_value());
        if (plan)
            sys.armFaults(*plan);
    }
    EvaluatorCatalog catalog;
    std::vector<float> in = traceInputs(reqs);
    RunResult res;
    res.out.assign(in.size(), 0.0f);

    serve::BatchQueue queue;
    if (journal)
        queue.setJournal(journal);
    MethodSpec spec;
    uint64_t off = 0;
    for (const Req& r : reqs) {
        serve::Request q;
        q.table = catalog.add(kFns[r.fn % 4], spec);
        q.input = in.data() + off;
        q.output = res.out.data() + off;
        q.elements = r.elements;
        queue.push(q);
        off += r.elements;
    }
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = perDpuElements;
    popts.journal = journal;
    popts.topology = topo;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    res.rep = pipeline.run(queue);
    return res;
}

/** A mixed four-table load with enough waves to spread over ranks. */
std::vector<Req>
mixedLoad(uint32_t requests, uint32_t elements)
{
    std::vector<Req> reqs;
    for (uint32_t i = 0; i < requests; ++i)
        reqs.push_back({static_cast<int>(i % 4), elements});
    return reqs;
}

} // namespace

// ---------------------------------------------------------------------
// Topology: parsing and the rank/channel geometry.

TEST(Topology, ParseRoundTripAndValidation)
{
    auto t = Topology::parse("20x2x64");
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->dimms, 20u);
    EXPECT_EQ(t->ranksPerDimm, 2u);
    EXPECT_EQ(t->dpusPerRank, 64u);
    EXPECT_EQ(t->numRanks(), 40u);
    EXPECT_EQ(t->numDpus(), 2560u);
    EXPECT_TRUE(t->valid());
    EXPECT_EQ(t->toText(), "20x2x64");
    EXPECT_EQ(Topology::parse(t->toText()), *t);

    EXPECT_FALSE(Topology::parse("").has_value());
    EXPECT_FALSE(Topology::parse("20x2").has_value());
    EXPECT_FALSE(Topology::parse("20x2x64x1").has_value());
    EXPECT_FALSE(Topology::parse("0x2x64").has_value());
    EXPECT_FALSE(Topology::parse("20x0x64").has_value());
    EXPECT_FALSE(Topology::parse("20x2x0").has_value());
    EXPECT_FALSE(Topology::parse("ax2x64").has_value());
    EXPECT_FALSE(Topology::parse("20x2x64 ").has_value());
    // DPU total must fit in 32 bits.
    EXPECT_FALSE(
        Topology::parse("100000x100000x100000").has_value());
}

TEST(Topology, RankAndChannelMapping)
{
    Topology t{3, 2, 4}; // 6 ranks on 3 channels, 24 DPUs
    EXPECT_EQ(t.numRanks(), 6u);
    EXPECT_EQ(t.numDpus(), 24u);
    EXPECT_EQ(t.rankOfDpu(0), 0u);
    EXPECT_EQ(t.rankOfDpu(3), 0u);
    EXPECT_EQ(t.rankOfDpu(4), 1u);
    EXPECT_EQ(t.rankOfDpu(23), 5u);
    EXPECT_EQ(t.firstDpuOfRank(0), 0u);
    EXPECT_EQ(t.firstDpuOfRank(5), 20u);
    // Ranks are DIMM-major: ranks {0,1} share channel 0, {2,3}
    // channel 1, {4,5} channel 2.
    std::vector<uint32_t> channels = t.channelMap();
    ASSERT_EQ(channels.size(), 6u);
    for (uint32_t r = 0; r < 6; ++r) {
        EXPECT_EQ(channels[r], r / 2);
        EXPECT_EQ(t.channelOfRank(r), r / 2);
    }
}

// ---------------------------------------------------------------------
// The rank-transfer scaling law: lanes of ranks on distinct memory
// channels overlap; the ranks of one DIMM serialize on their shared
// channel.

TEST(RankTransfer, BroadcastsOverlapAcrossChannelsSerializeWithin)
{
    PimSystem sys(8);
    const uint64_t bytes = 1u << 20;
    const double one = sys.model().parallelTransferSeconds(bytes, 1);
    ASSERT_GT(one, 0.0);

    // Two DIMMs: the two rank lanes ride distinct channels, so two
    // equal broadcasts fully overlap (2x aggregate bandwidth).
    Topology twoChannels{2, 1, 4};
    PipelineTimeline apart(twoChannels);
    EXPECT_EQ(2u, apart.laneCount());
    EXPECT_EQ(1u, apart.laneRanks()); // a rank lane engages one rank
    PipelineEvent a0 = sys.broadcastAsync(apart, 0, 0.0, bytes);
    PipelineEvent a1 = sys.broadcastAsync(apart, 1, 0.0, bytes);
    EXPECT_DOUBLE_EQ(a0.seconds(), one);
    EXPECT_DOUBLE_EQ(a1.seconds(), one);
    EXPECT_NEAR(apart.makespan(), one, one * 1e-12);

    // One DIMM, two ranks: same two broadcasts share the channel and
    // serialize back to back.
    Topology shared{1, 2, 4};
    PipelineTimeline together(shared);
    sys.broadcastAsync(together, 0, 0.0, bytes);
    PipelineEvent s1 = sys.broadcastAsync(together, 1, 0.0, bytes);
    EXPECT_NEAR(s1.start, one, one * 1e-12);
    EXPECT_NEAR(together.makespan(), 2.0 * one, one * 1e-12);
}

TEST(RankTransfer, ScatterBandwidthScalesWithEngagedRanks)
{
    PimSystem sys(8);
    std::vector<float> buf(4096, 1.0f);
    auto slicesFor = [&](uint32_t firstDpu) {
        std::vector<ScatterSlice> slices;
        for (uint32_t d = 0; d < 4; ++d)
            slices.push_back({firstDpu + d, 0, buf.data(),
                              1024 * sizeof(float)});
        return slices;
    };
    std::vector<ScatterSlice> rank0 = slicesFor(0);
    std::vector<ScatterSlice> rank1 = slicesFor(4);

    Topology twoChannels{2, 1, 4};
    PipelineTimeline apart(twoChannels);
    PipelineEvent a0 = sys.scatterAsync(apart, 0, 0.0, rank0);
    PipelineEvent a1 = sys.scatterAsync(apart, 1, 0.0, rank1);
    const double one = a0.seconds();
    ASSERT_GT(one, 0.0);
    EXPECT_DOUBLE_EQ(a1.seconds(), one);
    // Parallel across channels: two ranks move 2x the bytes in the
    // time one rank moves its share.
    EXPECT_NEAR(apart.makespan(), one, one * 1e-12);

    Topology shared{1, 2, 4};
    PipelineTimeline together(shared);
    sys.scatterAsync(together, 0, 0.0, rank0);
    sys.scatterAsync(together, 1, 0.0, rank1);
    EXPECT_NEAR(together.makespan(), 2.0 * one, one * 1e-12);
}

// ---------------------------------------------------------------------
// Table residency: a miss broadcasts once per holding rank, never
// once per DPU.

TEST(FleetCache, BroadcastOncePerHoldingRankNotPerDpu)
{
    PimSystem sys(4);
    int providerCalls = 0;
    serve::TableCache cache(
        sys, [&](const serve::TableKey& key, PimSystem&) {
            ++providerCalls;
            serve::TableBinding b;
            b.valid = key.hash != 666; // key 666: infeasible
            b.tableBytes = 4096;
            return b;
        });
    cache.setLaneCount(3);

    // First fleet-wide sighting: provider runs AND rank 0 receives
    // its broadcast.
    serve::TableCache::Lookup l0 = cache.lookup(keyOf(1), 0);
    ASSERT_NE(l0.binding, nullptr);
    EXPECT_TRUE(l0.miss);
    EXPECT_TRUE(l0.laneMiss);

    // Same rank again: fully resident, nothing to pay.
    serve::TableCache::Lookup l0b = cache.lookup(keyOf(1), 0);
    EXPECT_FALSE(l0b.miss);
    EXPECT_FALSE(l0b.laneMiss);

    // New rank: tables exist, but this rank still pays exactly one
    // single-rank broadcast.
    serve::TableCache::Lookup l1 = cache.lookup(keyOf(1), 1);
    EXPECT_FALSE(l1.miss);
    EXPECT_TRUE(l1.laneMiss);

    EXPECT_EQ(providerCalls, 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.laneBroadcasts(), 2u); // ranks 0 and 1, not 4 DPUs
    EXPECT_TRUE(cache.resident(keyOf(1), 0));
    EXPECT_TRUE(cache.resident(keyOf(1), 1));
    EXPECT_FALSE(cache.resident(keyOf(1), 2));
    EXPECT_EQ(cache.residency(0), 1u);
    EXPECT_EQ(cache.residency(2), 0u);

    // Infeasible tables are cached but never become resident.
    serve::TableCache::Lookup bad = cache.lookup(keyOf(666), 0);
    EXPECT_TRUE(bad.miss);
    EXPECT_FALSE(bad.laneMiss);
    EXPECT_FALSE(bad.binding->valid);
    EXPECT_EQ(cache.laneBroadcasts(), 2u);
    EXPECT_EQ(cache.residency(0), 1u);

    // Evicting a table clears its residency: the next lookup consults
    // the provider again and the lane pays its broadcast again.
    EXPECT_EQ(cache.evict(keyOf(1)), 4096u);
    EXPECT_FALSE(cache.resident(keyOf(1), 0));
    serve::TableCache::Lookup again = cache.lookup(keyOf(1), 1);
    EXPECT_TRUE(again.miss);
    EXPECT_TRUE(again.laneMiss);
    EXPECT_EQ(providerCalls, 3);

    // Re-arming resets residency (each run re-broadcasts) but keeps
    // the cached bindings.
    cache.setLaneCount(3);
    EXPECT_EQ(cache.residency(1), 0u);
    EXPECT_EQ(cache.laneBroadcasts(), 0u);
    EXPECT_FALSE(cache.lookup(keyOf(1), 1).miss);
}

TEST(FleetCache, FlatSystemIsOneLane)
{
    // Without setLaneCount the cache has one lane (a flat system):
    // the first lookup of a key both consults the provider and pays
    // the lane's broadcast; every later lookup is a plain hit.
    PimSystem sys(4);
    serve::TableCache cache(sys, [](const serve::TableKey&, PimSystem&) {
        serve::TableBinding b;
        b.valid = true;
        b.tableBytes = 4096;
        return b;
    });
    serve::TableCache::Lookup first = cache.lookup(keyOf(1), 0);
    EXPECT_TRUE(first.miss);
    EXPECT_TRUE(first.laneMiss);
    serve::TableCache::Lookup hit = cache.lookup(keyOf(1), 0);
    EXPECT_FALSE(hit.miss);
    EXPECT_FALSE(hit.laneMiss);
    EXPECT_EQ(cache.laneBroadcasts(), 1u);
    EXPECT_EQ(cache.residency(0), 1u);
}

TEST(FleetScheduler, CacheCountersCountRanksNotDpus)
{
    // One hot table over 4 ranks x 4 DPUs: the provider runs once,
    // and broadcasts are charged per holding rank.
    Topology topo{4, 1, 4};
    std::vector<Req> reqs(8, Req{0, 128});
    RunResult res = runTrace(reqs, topo.numDpus(), &topo, 32);
    ASSERT_TRUE(res.rep.complete);
    EXPECT_EQ(res.rep.cacheMisses, 1u);
    ASSERT_EQ(res.rep.rankStats.size(), 4u);
    uint64_t broadcasts = 0;
    uint64_t resident = 0;
    for (const serve::RankStats& r : res.rep.rankStats) {
        // One table: a rank broadcasts at most once, exactly when it
        // ends up holding the table.
        EXPECT_LE(r.broadcasts, 1u);
        EXPECT_EQ(r.broadcasts, r.residentTables);
        broadcasts += r.broadcasts;
        resident += r.residentTables;
    }
    EXPECT_GE(broadcasts, 1u);
    EXPECT_LE(broadcasts, topo.numRanks()); // never once per DPU
    EXPECT_EQ(broadcasts, resident);
}

// ---------------------------------------------------------------------
// The kill switch: no topology (or a mismatched one) is the flat
// path; Topology{1,1,N} is the flat schedule re-derived.

TEST(FleetScheduler, SingleRankTopologyMatchesFlatBitExactly)
{
    std::vector<Req> reqs = {
        {0, 600}, {1, 300}, {0, 300}, {2, 500}, {1, 140}};
    obs::Journal flatJournal, fleetJournal;
    RunResult flat =
        runTrace(reqs, 8, nullptr, 64, 0, nullptr, &flatJournal);
    Topology topo{1, 1, 8};
    RunResult fleet =
        runTrace(reqs, 8, &topo, 64, 0, nullptr, &fleetJournal);

    ASSERT_TRUE(flat.rep.complete);
    ASSERT_TRUE(fleet.rep.complete);
    // Modeled quantities are bit-identical, not just close.
    EXPECT_EQ(fleet.rep.modeledSeconds, flat.rep.modeledSeconds);
    EXPECT_EQ(fleet.rep.syncSeconds, flat.rep.syncSeconds);
    EXPECT_EQ(fleet.rep.computeCycles, flat.rep.computeCycles);
    EXPECT_EQ(fleet.rep.waves, flat.rep.waves);
    EXPECT_EQ(fleet.rep.cacheHits, flat.rep.cacheHits);
    EXPECT_EQ(fleet.rep.cacheMisses, flat.rep.cacheMisses);
    EXPECT_EQ(fleet.rep.elements, flat.rep.elements);
    ASSERT_EQ(fleet.out.size(), flat.out.size());
    EXPECT_EQ(std::memcmp(fleet.out.data(), flat.out.data(),
                          flat.out.size() * sizeof(float)),
              0);
    // The flat report has no rank rows; the single-rank fleet's one
    // row carries the whole makespan.
    EXPECT_TRUE(flat.rep.rankStats.empty());
    ASSERT_EQ(fleet.rep.rankStats.size(), 1u);
    EXPECT_EQ(fleet.rep.rankStats[0].makespanSeconds,
              fleet.rep.modeledSeconds);
    // Both run as one transfer lane, so their journals match byte
    // for byte once the fleet's rank field is dropped.
    std::string fleetJsonl = fleetJournal.toJsonl();
    const std::string rankField = ", \"rank\": 0";
    for (size_t at = fleetJsonl.find(rankField); at != std::string::npos;
         at = fleetJsonl.find(rankField, at))
        fleetJsonl.erase(at, rankField.size());
    EXPECT_EQ(fleetJsonl, flatJournal.toJsonl());

    // Past CostModel::dpusPerRank the flat lane engages N / 64 model
    // ranks in its broadcasts while the one rank lane engages one:
    // the same waves and outputs, every flat broadcast leg exactly
    // half the rank one.
    const uint32_t big = 2 * CostModel{}.dpusPerRank;
    obs::Registry& reg = obs::Registry::global();
    const char* const bcast =
        "pimsim/host/broadcast/parallel/modeled_seconds";
    reg.reset();
    reg.setEnabled(true);
    RunResult flatBig = runTrace(reqs, big, nullptr);
    const double flatBcast = reg.real(bcast).value();
    reg.reset();
    Topology topoBig{1, 1, big};
    RunResult fleetBig = runTrace(reqs, big, &topoBig);
    const double fleetBcast = reg.real(bcast).value();
    reg.setEnabled(false);
    reg.reset();
    ASSERT_TRUE(flatBig.rep.complete);
    ASSERT_TRUE(fleetBig.rep.complete);
    EXPECT_EQ(fleetBig.rep.waves, flatBig.rep.waves);
    EXPECT_EQ(fleetBig.rep.cacheHits, flatBig.rep.cacheHits);
    EXPECT_EQ(fleetBig.rep.cacheMisses, flatBig.rep.cacheMisses);
    EXPECT_EQ(fleetBig.rep.computeCycles, flatBig.rep.computeCycles);
    ASSERT_EQ(fleetBig.out.size(), flatBig.out.size());
    EXPECT_EQ(std::memcmp(fleetBig.out.data(), flatBig.out.data(),
                          flatBig.out.size() * sizeof(float)),
              0);
    ASSERT_EQ(fleetBig.rep.waveStats.size(), flatBig.rep.waveStats.size());
    uint32_t broadcasts = 0;
    for (size_t i = 0; i < flatBig.rep.waveStats.size(); ++i) {
        const serve::WaveStats& f = flatBig.rep.waveStats[i];
        const serve::WaveStats& r = fleetBig.rep.waveStats[i];
        EXPECT_EQ(f.tableMiss, r.tableMiss) << "wave " << i;
        // A leg's duration read back off the timeline (end - start)
        // carries the rounding of its start time.
        EXPECT_NEAR(2.0 * f.broadcastSeconds, r.broadcastSeconds,
                    1e-12 * r.broadcastSeconds)
            << "wave " << i;
        broadcasts += f.broadcastSeconds > 0.0 ? 1 : 0;
    }
    EXPECT_EQ(broadcasts, 3u); // sin, cos, exp
    // The legs as charged: the flat lane's total is exactly half.
    ASSERT_GT(flatBcast, 0.0);
    EXPECT_EQ(2.0 * flatBcast, fleetBcast);
}

TEST(FleetScheduler, MismatchedTopologyFallsBackToFlat)
{
    std::vector<Req> reqs = {{0, 600}, {1, 300}};
    Topology wrong{1, 1, 16}; // system below has 8 DPUs
    RunResult flat = runTrace(reqs, 8, nullptr);
    RunResult fallback = runTrace(reqs, 8, &wrong);
    EXPECT_TRUE(fallback.rep.rankStats.empty());
    EXPECT_EQ(fallback.rep.modeledSeconds, flat.rep.modeledSeconds);
    EXPECT_EQ(fallback.rep.waves, flat.rep.waves);
    EXPECT_EQ(std::memcmp(fallback.out.data(), flat.out.data(),
                          flat.out.size() * sizeof(float)),
              0);
}

// ---------------------------------------------------------------------
// Determinism: the fleet schedule is bookkept in modeled time on the
// consumer thread, so any simulation thread count produces the same
// bytes.

TEST(FleetScheduler, BitIdenticalAcrossSimThreadCounts)
{
    Topology topo{2, 2, 4};
    std::vector<Req> reqs = mixedLoad(12, 160);

    std::optional<RunResult> ref;
    std::string refJournal;
    for (uint32_t threads : {1u, 4u, 16u}) {
        obs::Journal journal;
        RunResult res = runTrace(reqs, topo.numDpus(), &topo, 32,
                                 threads, nullptr, &journal);
        ASSERT_TRUE(res.rep.complete);
        std::string jsonl = journal.toJsonl();
        if (!ref) {
            ref = std::move(res);
            refJournal = std::move(jsonl);
            continue;
        }
        EXPECT_EQ(res.rep.modeledSeconds, ref->rep.modeledSeconds);
        EXPECT_EQ(res.rep.computeCycles, ref->rep.computeCycles);
        EXPECT_EQ(res.rep.waves, ref->rep.waves);
        ASSERT_EQ(res.rep.rankStats.size(),
                  ref->rep.rankStats.size());
        for (size_t r = 0; r < res.rep.rankStats.size(); ++r) {
            EXPECT_EQ(res.rep.rankStats[r].waves,
                      ref->rep.rankStats[r].waves);
            EXPECT_EQ(res.rep.rankStats[r].makespanSeconds,
                      ref->rep.rankStats[r].makespanSeconds);
        }
        EXPECT_EQ(std::memcmp(res.out.data(), ref->out.data(),
                              ref->out.size() * sizeof(float)),
                  0);
        EXPECT_EQ(jsonl, refJournal); // journal bytes, not just stats
    }
}

// ---------------------------------------------------------------------
// Accounting identities.

TEST(FleetScheduler, MakespanIsMaxOverRankMakespans)
{
    Topology topo{2, 2, 4};
    RunResult res =
        runTrace(mixedLoad(16, 200), topo.numDpus(), &topo, 32);
    ASSERT_TRUE(res.rep.complete);
    ASSERT_EQ(res.rep.rankStats.size(), topo.numRanks());

    double maxSpan = 0.0;
    uint64_t waves = 0;
    uint64_t elements = 0;
    uint64_t cycles = 0;
    for (const serve::RankStats& r : res.rep.rankStats) {
        maxSpan = std::max(maxSpan, r.makespanSeconds);
        waves += r.waves;
        elements += r.elements;
        cycles += r.computeCycles;
    }
    // The fleet clock is exactly the slowest rank's clock, and the
    // per-rank rows partition the fleet totals.
    EXPECT_EQ(res.rep.modeledSeconds, maxSpan);
    EXPECT_EQ(waves, res.rep.waves);
    EXPECT_EQ(elements, res.rep.elements);
    EXPECT_EQ(cycles, res.rep.computeCycles);
}

TEST(FleetScheduler, PipelinedFleetNotSlowerThanSyncFleet)
{
    Topology topo{2, 2, 4};
    std::vector<Req> reqs = mixedLoad(16, 200);
    RunResult res = runTrace(reqs, topo.numDpus(), &topo, 32);
    ASSERT_TRUE(res.rep.complete);
    // The pipelined makespan never exceeds the same legs issued back
    // to back (the no-overlap baseline).
    EXPECT_LE(res.rep.modeledSeconds,
              res.rep.syncSeconds * (1.0 + 1e-12));
    // Served outputs equal the host evaluator's, bit for bit.
    std::vector<float> expect = hostReference(reqs);
    ASSERT_EQ(expect.size(), res.out.size());
    EXPECT_EQ(std::memcmp(res.out.data(), expect.data(),
                          expect.size() * sizeof(float)),
              0);
}

TEST(FleetScheduler, MoreRanksServeTheSameLoadFaster)
{
    std::vector<Req> reqs = mixedLoad(32, 256);
    Topology one{1, 1, 8};
    Topology four{4, 1, 8};
    RunResult r1 = runTrace(reqs, one.numDpus(), &one, 32);
    RunResult r4 = runTrace(reqs, four.numDpus(), &four, 32);
    ASSERT_TRUE(r1.rep.complete);
    ASSERT_TRUE(r4.rep.complete);
    // Scale-out must actually buy throughput on a parallel load.
    EXPECT_LT(r4.rep.modeledSeconds * 1.5, r1.rep.modeledSeconds);
    EXPECT_EQ(std::memcmp(r1.out.data(), r4.out.data(),
                          r1.out.size() * sizeof(float)),
              0);
}

// ---------------------------------------------------------------------
// Hot-table balancing.

TEST(FleetScheduler, HotTablesBalanceAcrossRanks)
{
    Topology topo{4, 1, 4};
    RunResult res =
        runTrace(mixedLoad(48, 128), topo.numDpus(), &topo, 32);
    ASSERT_TRUE(res.rep.complete);
    ASSERT_EQ(res.rep.rankStats.size(), 4u);

    uint64_t totalResident = 0;
    uint64_t maxResident = 0;
    for (const serve::RankStats& r : res.rep.rankStats) {
        EXPECT_GT(r.waves, 0u); // every rank pulled weight
        totalResident += r.residentTables;
        maxResident = std::max(maxResident, r.residentTables);
    }
    ASSERT_GT(totalResident, 0u);
    const double mean =
        static_cast<double>(totalResident) /
        static_cast<double>(res.rep.rankStats.size());
    // Balanced residency: no rank hoards more than twice the mean.
    EXPECT_LE(static_cast<double>(maxResident), 2.0 * mean);
}

// ---------------------------------------------------------------------
// Fault degradation per rank.

TEST(FleetScheduler, MaskedRankReshardsOntoHealthyRanks)
{
    // Kill all four DPUs of rank 0 (hard-fail on first launch); the
    // fleet must finish every element on rank 1 with nothing dropped.
    Topology topo{2, 1, 4};
    const char* plan =
        "seed 5\n"
        "fault kind=dpu-hard-fail dpu=0 prob=1\n"
        "fault kind=dpu-hard-fail dpu=1 prob=1\n"
        "fault kind=dpu-hard-fail dpu=2 prob=1\n"
        "fault kind=dpu-hard-fail dpu=3 prob=1\n";
    RunResult res = runTrace(mixedLoad(12, 160), topo.numDpus(),
                             &topo, 32, 0, plan);
    ASSERT_TRUE(res.rep.complete);
    EXPECT_EQ(res.rep.droppedElements, 0u);
    EXPECT_EQ(res.rep.failedDpus.size(), 4u);
    EXPECT_GT(res.rep.reshardedElements, 0u);
    ASSERT_EQ(res.rep.rankStats.size(), 2u);
    // The surviving rank served the re-sharded stream.
    EXPECT_GT(res.rep.rankStats[1].waves, 0u);
    // Exact accounting: what the healthy rank computed is the whole
    // fleet's compute.
    EXPECT_EQ(res.rep.rankStats[1].computeCycles +
                  res.rep.rankStats[0].computeCycles,
              res.rep.computeCycles);

    // Outputs match a fault-free flat reference bit for bit.
    RunResult ref = runTrace(mixedLoad(12, 160), 8, nullptr, 32);
    ASSERT_TRUE(ref.rep.complete);
    EXPECT_EQ(std::memcmp(res.out.data(), ref.out.data(),
                          ref.out.size() * sizeof(float)),
              0);
}

TEST(FleetScheduler, AllRanksDeadDropsEverythingWithoutHanging)
{
    Topology topo{2, 1, 2};
    const char* plan =
        "seed 7\nfault kind=dpu-hard-fail prob=1\n"; // every DPU
    // A single small request: it fits in one wave, so after the
    // retry budget the drop accounting must be exact.
    std::vector<Req> reqs = {{0, 96}};
    RunResult res =
        runTrace(reqs, topo.numDpus(), &topo, 32, 0, plan);
    EXPECT_FALSE(res.rep.complete);
    EXPECT_EQ(res.rep.droppedElements, 96u);
    for (float v : res.out)
        EXPECT_EQ(v, 0.0f); // nothing pretended to be served
}
