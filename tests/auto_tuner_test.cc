/**
 * @file
 * Online auto-tuner conformance tier: the TenantSla grammar, the
 * PipelineOptions::autoTuner kill switch (nullptr — and an attached
 * tuner with no constrained tenants — reproduce the untuned pipeline
 * bit-for-bit, journal bytes included), determinism of tuned runs
 * across simulation thread counts, the core win (a tuned stream
 * commits to a cheaper configuration that still meets its SLA),
 * per-tenant wave separation, MRAM-budget arbitration, and the
 * incremental percentile behind the `cycles:pNN` clause.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pimsim/obs/journal.h"
#include "pimsim/serve/pipeline.h"
#include "transpim/auto_tuner.h"
#include "transpim/harness.h"
#include "transpim/serve_glue.h"

using namespace tpl;
using namespace tpl::sim;
using namespace tpl::transpim;

namespace {

/** One synthetic request. */
struct Req
{
    Function fn = Function::Sin;
    Method method = Method::Cordic;
    uint32_t elements = 0;
    uint64_t tenant = 0;
};

struct TunedRun
{
    serve::ServeReport rep;
    std::vector<float> out;
    std::string journal; ///< full event stream (JSONL)
    std::vector<StreamReport> streams;
    std::vector<serve::TuneDecision> decisions;
};

/** Replay @p reqs through one ServePipeline on a fresh system, with
 * or without an OnlineAutoTuner attached. Inputs are a fixed
 * deterministic pattern so outputs are comparable across runs. */
TunedRun
runTuned(const std::vector<Req>& reqs, bool useTuner,
         const std::map<uint64_t, serve::TenantSla>& slas,
         uint32_t simThreads = 0, uint64_t exploreElements = 512,
         uint64_t mramBudgetBytes = 0, uint32_t dpus = 8,
         uint32_t perDpuElements = 64)
{
    PimSystem sys(dpus);
    if (simThreads)
        sys.setSimThreads(simThreads);
    EvaluatorCatalog catalog;

    uint64_t total = 0;
    for (const Req& r : reqs)
        total += r.elements;
    std::vector<float> in(total);
    for (uint64_t i = 0; i < total; ++i)
        in[i] = 0.001f +
                0.9f * static_cast<float>((i * 37) % 1000) / 1000.0f;
    TunedRun res;
    res.out.assign(total, 0.0f);

    obs::Journal journal;
    serve::BatchQueue queue;
    queue.setJournal(&journal);
    uint64_t off = 0;
    for (const Req& r : reqs) {
        MethodSpec spec;
        spec.method = r.method;
        serve::Request q;
        q.table = catalog.add(r.fn, spec);
        q.input = in.data() + off;
        q.output = res.out.data() + off;
        q.elements = r.elements;
        q.tenant = r.tenant;
        queue.push(q);
        off += r.elements;
    }
    queue.close();

    std::optional<OnlineAutoTuner> tuner;
    if (useTuner) {
        AutoTunerOptions topts;
        topts.exploreElements = exploreElements;
        topts.mramBudgetBytes = mramBudgetBytes;
        tuner.emplace(catalog, topts);
        for (const auto& [tenant, sla] : slas)
            tuner->setTenantSla(tenant, sla);
    }

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = perDpuElements;
    popts.journal = &journal;
    if (tuner)
        popts.autoTuner = &*tuner;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    res.rep = pipeline.run(queue);
    res.journal = journal.toJsonl();
    if (tuner) {
        res.streams = tuner->streamReports();
        res.decisions = tuner->decisions();
    }
    return res;
}

/** @p requests identical requests for one (fn, method, tenant). */
std::vector<Req>
uniformLoad(uint32_t requests, uint32_t elements, uint64_t tenant,
            Function fn = Function::Sin,
            Method method = Method::Cordic)
{
    std::vector<Req> reqs;
    for (uint32_t i = 0; i < requests; ++i)
        reqs.push_back({fn, method, elements, tenant});
    return reqs;
}

serve::TenantSla
slaOf(const std::string& text)
{
    serve::TenantSla sla;
    EXPECT_TRUE(serve::TenantSla::parse(text, sla)) << text;
    return sla;
}

} // namespace

// ---------------------------------------------------------------------
// The TenantSla grammar.

TEST(TenantSla, ParseSingleClauses)
{
    serve::TenantSla s;
    ASSERT_TRUE(serve::TenantSla::parse("rmse<1e-6", s));
    EXPECT_DOUBLE_EQ(s.maxRmse, 1e-6);
    EXPECT_EQ(s.maxUlp, 0.0);
    EXPECT_EQ(s.maxCyclesPerElement, 0.0);
    EXPECT_TRUE(s.constrained());

    ASSERT_TRUE(serve::TenantSla::parse("ulp<8", s));
    EXPECT_DOUBLE_EQ(s.maxUlp, 8.0);

    // ':' is an accepted separator alongside '<' (SloSpec idiom).
    ASSERT_TRUE(serve::TenantSla::parse("cycles:450", s));
    EXPECT_DOUBLE_EQ(s.maxCyclesPerElement, 450.0);
    EXPECT_EQ(s.cyclesPercentile, 0.0); // mean

    ASSERT_TRUE(serve::TenantSla::parse("cycles:p99<600", s));
    EXPECT_DOUBLE_EQ(s.maxCyclesPerElement, 600.0);
    EXPECT_DOUBLE_EQ(s.cyclesPercentile, 99.0);
}

TEST(TenantSla, ParseMultiClauseAndRoundTrip)
{
    serve::TenantSla s;
    ASSERT_TRUE(
        serve::TenantSla::parse("rmse<1e-6;cycles:p99<600", s));
    EXPECT_DOUBLE_EQ(s.maxRmse, 1e-6);
    EXPECT_DOUBLE_EQ(s.maxCyclesPerElement, 600.0);
    EXPECT_DOUBLE_EQ(s.cyclesPercentile, 99.0);

    // toText round-trips through parse for every clause shape.
    for (const char* text :
         {"rmse<1e-06", "ulp<8", "cycles<450", "cycles:p99<600",
          "rmse<0.001;ulp<16;cycles:p50<1200"}) {
        serve::TenantSla a;
        ASSERT_TRUE(serve::TenantSla::parse(text, a)) << text;
        serve::TenantSla b;
        ASSERT_TRUE(serve::TenantSla::parse(a.toText(), b))
            << a.toText();
        EXPECT_DOUBLE_EQ(a.maxRmse, b.maxRmse);
        EXPECT_DOUBLE_EQ(a.maxUlp, b.maxUlp);
        EXPECT_DOUBLE_EQ(a.maxCyclesPerElement,
                         b.maxCyclesPerElement);
        EXPECT_DOUBLE_EQ(a.cyclesPercentile, b.cyclesPercentile);
    }
}

TEST(TenantSla, MalformedInputsRejectedAndLeaveOutputUntouched)
{
    for (const char* text :
         {"", "rmse", "rmse<", "rmse<abc", "rmse<0", "rmse<-1",
          "bogus<1", "rmse<1e-6;", "rmse<1e-6;;ulp<8",
          "rmse<1e-6 ulp<8", "rmse<1e-6;rmse<1e-7", // duplicate
          "cycles:p0<5", "cycles:p100<5", "cycles:p<5",
          "ulp:p99<5"}) { // percentile is cycles-only
        serve::TenantSla out;
        out.maxRmse = 42.0;
        EXPECT_FALSE(serve::TenantSla::parse(text, out)) << text;
        EXPECT_DOUBLE_EQ(out.maxRmse, 42.0) << text;
    }
    serve::TenantSla none;
    EXPECT_FALSE(none.constrained());
}

// ---------------------------------------------------------------------
// The kill switch: PipelineOptions::autoTuner == nullptr is the
// untuned pipeline, bit-identical at any TPL_SIM_THREADS — journal
// bytes included. An attached tuner with no constrained tenants must
// be indistinguishable from no tuner at all.

TEST(AutoTunerKillSwitch, NullTunerBitIdenticalAcrossSimThreads)
{
    std::vector<Req> reqs = uniformLoad(12, 160, 1);
    std::optional<TunedRun> ref;
    for (uint32_t threads : {1u, 4u, 16u}) {
        TunedRun res = runTuned(reqs, false, {}, threads);
        ASSERT_TRUE(res.rep.complete);
        if (!ref) {
            ref = std::move(res);
            continue;
        }
        EXPECT_EQ(res.rep.modeledSeconds, ref->rep.modeledSeconds);
        EXPECT_EQ(res.rep.computeCycles, ref->rep.computeCycles);
        EXPECT_EQ(std::memcmp(res.out.data(), ref->out.data(),
                              ref->out.size() * sizeof(float)),
                  0);
        EXPECT_EQ(res.journal, ref->journal);
    }
}

TEST(AutoTunerKillSwitch, UnconstrainedTunerMatchesNullTunerBitExactly)
{
    std::vector<Req> reqs = uniformLoad(10, 200, 1);
    TunedRun off = runTuned(reqs, false, {});
    // Tuner attached, but no tenant has an SLA: every stream is
    // untunable and passes through.
    TunedRun on = runTuned(reqs, true, {});
    ASSERT_TRUE(off.rep.complete);
    ASSERT_TRUE(on.rep.complete);
    EXPECT_EQ(on.rep.modeledSeconds, off.rep.modeledSeconds);
    EXPECT_EQ(on.rep.syncSeconds, off.rep.syncSeconds);
    EXPECT_EQ(on.rep.computeCycles, off.rep.computeCycles);
    EXPECT_EQ(on.rep.waves, off.rep.waves);
    EXPECT_EQ(std::memcmp(on.out.data(), off.out.data(),
                          off.out.size() * sizeof(float)),
              0);
    EXPECT_EQ(on.journal, off.journal); // no tune events, same bytes
    EXPECT_TRUE(on.decisions.empty());
    for (const StreamReport& s : on.streams)
        EXPECT_FALSE(s.tunable);
}

// ---------------------------------------------------------------------
// The core win: a stream whose SLA admits a cheaper configuration
// commits to one, spends fewer modeled cycles than the requested
// configuration would, and keeps its observed error inside the SLA.

TEST(OnlineTuner, CommitsToCheaperConfigMeetingSla)
{
    std::vector<Req> reqs = uniformLoad(40, 200, 1);
    std::map<uint64_t, serve::TenantSla> slas = {
        {1, slaOf("rmse<1e-3")}};
    TunedRun off = runTuned(reqs, false, slas);
    TunedRun on = runTuned(reqs, true, slas);
    ASSERT_TRUE(off.rep.complete);
    ASSERT_TRUE(on.rep.complete);

    // Fewer modeled cycles than replaying the requested config.
    EXPECT_LT(on.rep.computeCycles, off.rep.computeCycles);

    ASSERT_EQ(on.streams.size(), 1u);
    const StreamReport& s = on.streams[0];
    EXPECT_TRUE(s.tunable);
    EXPECT_TRUE(s.committed);
    EXPECT_FALSE(s.slaViolated);
    EXPECT_NE(s.chosen, s.requested); // actually moved off CORDIC
    EXPECT_GT(s.switches, 0u);
    EXPECT_LT(s.rmse, 1e-3); // observed error inside the SLA
    EXPECT_GT(s.elements, 0u);

    // The journey is trace-visible: decisions end in a commit, and
    // the journal carries `tune` events.
    ASSERT_FALSE(on.decisions.empty());
    bool committed = false;
    for (const serve::TuneDecision& d : on.decisions) {
        EXPECT_EQ(d.tenant, 1u);
        if (d.reason == "commit")
            committed = true;
    }
    EXPECT_TRUE(committed);
    EXPECT_NE(on.journal.find("\"kind\": \"tune\""),
              std::string::npos);
}

TEST(OnlineTuner, DeterministicAcrossSimThreadCounts)
{
    std::vector<Req> reqs = uniformLoad(24, 200, 1);
    std::map<uint64_t, serve::TenantSla> slas = {
        {1, slaOf("rmse<1e-3")}};
    std::optional<TunedRun> ref;
    for (uint32_t threads : {1u, 4u, 16u}) {
        TunedRun res = runTuned(reqs, true, slas, threads);
        ASSERT_TRUE(res.rep.complete);
        if (!ref) {
            ref = std::move(res);
            continue;
        }
        EXPECT_EQ(res.rep.modeledSeconds, ref->rep.modeledSeconds);
        EXPECT_EQ(res.rep.computeCycles, ref->rep.computeCycles);
        EXPECT_EQ(res.rep.waves, ref->rep.waves);
        EXPECT_EQ(std::memcmp(res.out.data(), ref->out.data(),
                              ref->out.size() * sizeof(float)),
                  0);
        EXPECT_EQ(res.journal, ref->journal);
        ASSERT_EQ(res.decisions.size(), ref->decisions.size());
        for (size_t i = 0; i < res.decisions.size(); ++i) {
            EXPECT_EQ(res.decisions[i].sequence,
                      ref->decisions[i].sequence);
            EXPECT_EQ(res.decisions[i].toTable,
                      ref->decisions[i].toTable);
            EXPECT_EQ(res.decisions[i].reason,
                      ref->decisions[i].reason);
        }
    }
}

// ---------------------------------------------------------------------
// Per-tenant isolation: tenants never share a wave, each
// (tenant, requested-table) pair is its own stream, and a tenant
// without an SLA rides through untouched next to a tuned one.

TEST(OnlineTuner, TenantsGetSeparateStreamsAndWaves)
{
    // Two tenants, same requested config, interleaved. The load fits
    // one wave's capacity (8 DPUs x 64 = 512 >= 8 x 64 elements), so
    // any wave count above one is tenant separation at work.
    std::vector<Req> reqs;
    for (uint32_t i = 0; i < 8; ++i)
        reqs.push_back(
            {Function::Sin, Method::Cordic, 64, 1 + i % 2});
    std::map<uint64_t, serve::TenantSla> slas = {
        {1, slaOf("rmse<1e-3")}}; // tenant 2: no SLA, untunable
    TunedRun off = runTuned(reqs, false, slas);
    TunedRun on = runTuned(reqs, true, slas);
    ASSERT_TRUE(on.rep.complete);
    EXPECT_GE(on.rep.waves, 2u);

    ASSERT_EQ(on.streams.size(), 2u);
    std::map<uint64_t, const StreamReport*> byTenant;
    for (const StreamReport& s : on.streams)
        byTenant[s.tenant] = &s;
    ASSERT_TRUE(byTenant.count(1));
    ASSERT_TRUE(byTenant.count(2));
    EXPECT_TRUE(byTenant[1]->tunable);
    EXPECT_FALSE(byTenant[2]->tunable);
    EXPECT_EQ(byTenant[2]->chosen, byTenant[2]->requested);
    for (const serve::TuneDecision& d : on.decisions)
        EXPECT_EQ(d.tenant, 1u); // tenant 2 never re-routed

    // The untuned tenant's outputs are bit-identical to the fully
    // untuned run (its spans in the shared buffer are untouched by
    // tenant 1's tuning).
    uint64_t offEl = 0;
    for (const Req& r : reqs) {
        if (r.tenant == 2) {
            EXPECT_EQ(std::memcmp(on.out.data() + offEl,
                                  off.out.data() + offEl,
                                  r.elements * sizeof(float)),
                      0);
        }
        offEl += r.elements;
    }
}

// ---------------------------------------------------------------------
// The percentile cycles clause: NearestRank keeps the rank-r value of
// a candidate's per-wave cycles incrementally. The tuner's cycles
// score under a `cycles:pNN<X` clause is exactly value(), and checkSla
// compares only that score with X, so matching the former sort-based
// definition wave by wave means the same violations, and from them
// the same decisions.

TEST(NearestRank, MatchesSortBasedDefinitionOverTenThousandWaves)
{
    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
        SCOPED_TRACE("p" + std::to_string(p));
        NearestRank rank(p);
        std::vector<double> sorted; // every value so far, ascending
        SplitMix64 rng(0x5eed + static_cast<uint64_t>(p * 10));
        const double bound = 460.0;
        uint64_t violations = 0;
        for (uint32_t w = 0; w < 10'000; ++w) {
            // Cycles/element around 400 with rare straggler spikes;
            // whole values so duplicates are common.
            double x = 380.0 + static_cast<double>(rng.next() % 40);
            if (rng.next() % 50 == 0)
                x += 200.0 + static_cast<double>(rng.next() % 300);
            rank.push(x);
            sorted.insert(
                std::upper_bound(sorted.begin(), sorted.end(), x), x);

            // The sort-based definition the tuner used to evaluate.
            uint64_t r = static_cast<uint64_t>(std::ceil(
                p / 100.0 * static_cast<double>(sorted.size())));
            r = std::min<uint64_t>(std::max<uint64_t>(r, 1),
                                   sorted.size());
            const double want = sorted[r - 1];
            ASSERT_EQ(rank.value(), want) << "wave " << w;
            ASSERT_EQ(rank.value() > bound, want > bound)
                << "wave " << w;
            violations += want > bound ? 1 : 0;
        }
        EXPECT_EQ(rank.size(), 10'000u);
        // The sequence exercises both sides of the clause.
        if (p >= 99.0) {
            EXPECT_GT(violations, 0u);
        }
        if (p <= 50.0) {
            EXPECT_EQ(violations, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// MRAM-budget arbitration: a tight table budget still completes,
// stays deterministic, and never lands a stream on a candidate that
// violates its SLA.

TEST(OnlineTuner, TightMramBudgetCompletesDeterministically)
{
    // Two tunable tenants on different functions: their candidate
    // tables compete for an 8 KiB per-DPU budget.
    std::vector<Req> reqs;
    for (uint32_t i = 0; i < 32; ++i)
        reqs.push_back({i % 2 ? Function::Exp : Function::Sin,
                        Method::Cordic, 200, 1 + i % 2});
    std::map<uint64_t, serve::TenantSla> slas = {
        {1, slaOf("rmse<1e-2")}, {2, slaOf("rmse<1e-2")}};
    std::optional<TunedRun> ref;
    for (uint32_t threads : {1u, 4u, 16u}) {
        TunedRun res =
            runTuned(reqs, true, slas, threads, 512, 8 * 1024);
        ASSERT_TRUE(res.rep.complete);
        for (const StreamReport& s : res.streams)
            EXPECT_FALSE(s.slaViolated);
        if (!ref) {
            ref = std::move(res);
            continue;
        }
        EXPECT_EQ(res.rep.modeledSeconds, ref->rep.modeledSeconds);
        EXPECT_EQ(res.rep.computeCycles, ref->rep.computeCycles);
        EXPECT_EQ(std::memcmp(res.out.data(), ref->out.data(),
                              ref->out.size() * sizeof(float)),
                  0);
        EXPECT_EQ(res.journal, ref->journal);
        ASSERT_EQ(res.decisions.size(), ref->decisions.size());
    }
}
