/**
 * @file
 * pimtune: offline what-if replay for the online per-tenant
 * auto-tuner. Replays one request trace three ways on fresh systems —
 *
 *   as-requested   every request runs its requested configuration,
 *   static-best    the offline tuner (recommendSpec) re-picks one
 *                  configuration per requested config at the
 *                  *strictest* accuracy target any tenant using it
 *                  declares (configs with an rmse-unconstrained
 *                  tenant are kept as requested),
 *   online         the OnlineAutoTuner routes each tenant's waves
 *                  independently against its own SLA,
 *
 * — and reports total modeled DPU cycles, per-tenant ground-truth
 * RMSE (host-side differential against the double reference over the
 * full output buffers), and the online tuner's decision log. This is
 * the harness behind the `tuner_sweep` bench proof: online beats the
 * best single static configuration because lax tenants ride cheaper
 * tables while strict tenants keep accurate ones.
 *
 * Trace format is pimserve's (transpim/trace.h); the `tenant=` key
 * picks the SLA a request is tuned against:
 *
 *   request function=sin method=cordic elements=40 tenant=2
 *
 * Options:
 *   --trace PATH         request trace to replay
 *   --demo N             built-in mixed-tenant demo trace of N
 *                        requests: tenants 2 (lax) and 1 (strict)
 *                        share sin/CORDIC-fixed, tenant 3 runs
 *                        exp/CORDIC, with 4:2:1 Zipfian-ish
 *                        popularity. Installs demo SLAs
 *                        (1:rmse<8e-8, 2:rmse<1e-3, 3:rmse<1e-3)
 *                        unless --tenant-sla is given.
 *   --tenant-sla T:SPEC  SLA for tenant T ('*' = default SLA applied
 *                        to tenants without their own; repeatable).
 *                        SPEC grammar: docs/autotuner.md, e.g.
 *                        'rmse<1e-6;cycles:p99<600'.
 *   --dpus N             simulated DPUs (default 64)
 *   --tasklets N         tasklets per DPU, 1..24 (default 16)
 *   --per-dpu-elements N per-wave slice capacity per DPU, >= 1
 *                        (default 512)
 *   --chunk N            streaming-kernel chunk elements, 1..256
 *                        (default 32)
 *   --explore N          elements each candidate is explored for
 *                        before a stream commits (default 512)
 *   --candidates N       candidates per stream incl. requested
 *                        (default 3)
 *   --mram-budget BYTES  per-DPU budget across tuner-routed tables
 *                        (0 = unlimited)
 *   --seed N             input-generation seed
 *   --json PATH          machine-readable summary ('-' for stdout)
 *
 * Exit status: 0 when all three replays completed and every
 * SLA-constrained tenant's online ground-truth error meets its
 * accuracy clauses, 1 otherwise, 2 on usage/parse errors.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error_metrics.h"
#include "pimsim/cli.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/serve/pipeline.h"
#include "transpim/auto_tuner.h"
#include "transpim/reference.h"
#include "transpim/serve_glue.h"
#include "transpim/trace.h"
#include "transpim/tuner.h"

namespace {

using namespace tpl;
using namespace tpl::transpim;

void
usage()
{
    std::cerr
        << "usage: pimtune --trace PATH | --demo N\n"
           "               [--tenant-sla T:SPEC]... [--dpus N]\n"
           "               [--tasklets N] [--per-dpu-elements N]\n"
           "               [--chunk N] [--explore N] [--candidates N]\n"
           "               [--mram-budget BYTES] [--seed N]\n"
           "               [--json PATH]\n"
           "example: pimtune --demo 400 --tenant-sla '2:rmse<1e-3'\n";
}

/** The built-in mixed-tenant trace: a strict and a lax tenant share
 * sin's most accurate configuration (fixed-point CORDIC), a third
 * lax tenant runs exp/CORDIC; popularity 4:2:1. The strict SLA is
 * only reachable by the requested config, so the best single static
 * config must keep every sin wave on it — only the online tuner can
 * drop the lax tenant's waves to a cheap interpolated L-LUT. */
std::vector<TraceRequest>
demoTrace(uint32_t requests)
{
    std::vector<TraceRequest> trace;
    trace.reserve(requests);
    for (uint32_t i = 0; i < requests; ++i) {
        TraceRequest req;
        uint32_t slot = i % 7;
        if (slot < 4) {
            req.tenant = 2; // lax, most traffic
            req.function = Function::Sin;
            req.spec.method = Method::CordicFixed;
        } else if (slot < 6) {
            req.tenant = 1; // strict
            req.function = Function::Sin;
            req.spec.method = Method::CordicFixed;
        } else {
            req.tenant = 3; // lax
            req.function = Function::Exp;
            req.spec.method = Method::Cordic;
        }
        req.elements = 8 + (i * 5) % 29;
        trace.push_back(req);
    }
    return trace;
}

/** Ground-truth accuracy of one replay, per tenant, measured
 * host-side over every output element. */
struct TenantError
{
    double sumSq = 0.0;
    uint64_t samples = 0;
    double maxUlp = 0.0;

    double
    rmse() const
    {
        return samples ? std::sqrt(sumSq / samples) : 0.0;
    }
};

/** One replay's outcome. */
struct ReplayResult
{
    sim::serve::ServeReport report;
    uint64_t totalCycles = 0; ///< sum of per-wave summed DPU cycles
    std::map<uint64_t, TenantError> tenantError;
    std::vector<sim::serve::TuneDecision> decisions;
    std::vector<StreamReport> streams;
};

std::map<uint64_t, TenantError>
measureError(const std::vector<TraceRequest>& trace,
             const std::vector<float>& inputs,
             const std::vector<float>& outputs)
{
    std::map<uint64_t, TenantError> result;
    uint64_t off = 0;
    for (const TraceRequest& r : trace) {
        bool relative = resolveMetric(r.function) ==
                        ErrorMetric::Relative;
        TenantError& te = result[r.tenant];
        for (uint32_t i = 0; i < r.elements; ++i) {
            double ref = referenceValue(
                r.function, static_cast<double>(inputs[off + i]));
            double err = static_cast<double>(outputs[off + i]) - ref;
            if (relative)
                err /= std::max(1.0, std::fabs(ref));
            te.sumSq += err * err;
            ++te.samples;
            te.maxUlp = std::max(
                te.maxUlp, ulpDistance(outputs[off + i],
                                       static_cast<float>(ref)));
        }
        off += r.elements;
    }
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string tracePath;
    std::string jsonPath;
    uint32_t demoRequests = 0;
    bool demo = false;
    uint32_t dpus = 64;
    uint32_t tasklets = 16;
    uint32_t perDpuElements = 512;
    uint32_t chunk = 32;
    uint32_t explore = 512;
    uint32_t candidates = 3;
    uint64_t mramBudget = 0;
    uint32_t seed = 0x7ea9c0de;
    std::map<uint64_t, sim::serve::TenantSla> slas;
    std::optional<sim::serve::TenantSla> defaultSla;
    bool anySlaArg = false;

    cli::Flags flags("pimtune", argc, argv, usage);
    while (flags.next()) {
        const std::string& arg = flags.arg();
        if (arg == "--trace") {
            tracePath = flags.value();
        } else if (arg == "--demo") {
            demo = true;
            flags.u32(demoRequests);
        } else if (arg == "--tenant-sla") {
            TenantSlaArg parsed;
            flags.parse(parsed, parseTenantSlaArg);
            anySlaArg = true;
            if (parsed.tenant)
                slas[*parsed.tenant] = parsed.sla;
            else
                defaultSla = parsed.sla;
        } else if (arg == "--dpus") {
            flags.u32(dpus);
        } else if (arg == "--tasklets") {
            flags.parse(tasklets, cli::parseTasklets);
        } else if (arg == "--per-dpu-elements") {
            flags.parse(perDpuElements, parsePerDpuElements);
        } else if (arg == "--chunk") {
            flags.parse(chunk, parseChunk);
        } else if (arg == "--explore") {
            flags.u32(explore);
        } else if (arg == "--candidates") {
            flags.u32(candidates);
        } else if (arg == "--mram-budget") {
            flags.u64(mramBudget);
        } else if (arg == "--seed") {
            flags.u32(seed);
        } else if (arg == "--json") {
            jsonPath = flags.value();
        } else {
            flags.unknown();
        }
    }

    if (tracePath.empty() == !demo || (demo && demoRequests == 0) ||
        dpus == 0 || candidates == 0) {
        usage();
        return 2;
    }

    std::vector<TraceRequest> trace;
    if (demo) {
        trace = demoTrace(demoRequests);
        if (!anySlaArg) {
            sim::serve::TenantSla sla;
            sim::serve::TenantSla::parse("rmse<8e-8", sla);
            slas[1] = sla;
            sim::serve::TenantSla::parse("rmse<1e-3", sla);
            slas[2] = sla;
            slas[3] = sla;
        }
    } else {
        std::string error;
        if (!readTraceFile(tracePath, trace, error)) {
            std::cerr << "pimtune: " << error << "\n";
            return 2;
        }
    }

    auto slaFor = [&](uint64_t tenant) -> sim::serve::TenantSla {
        auto it = slas.find(tenant);
        if (it != slas.end())
            return it->second;
        if (defaultSla)
            return *defaultSla;
        return {};
    };

    obs::Registry::global().setEnabled(true);

    const std::vector<float> inputs = traceInputs(trace, seed);
    std::vector<float> outputs(inputs.size(), 0.0f);
    const uint64_t total = inputs.size();

    // Static-best: per requested configuration, re-pick offline at
    // the strictest rmse clause among its tenants. A configuration
    // with any rmse-unconstrained tenant stays as requested (the
    // offline tuner has no "never worse than asked" measurement to
    // fall back on).
    struct StaticGroup
    {
        Function function = Function::Sin;
        MethodSpec spec;
        uint64_t elements = 0;
        std::vector<uint64_t> tenants;
    };
    std::map<uint64_t, StaticGroup> groups;
    for (const TraceRequest& r : trace) {
        sim::serve::TableKey key = batchTableKey(r.function, r.spec);
        StaticGroup& g = groups[key.hash];
        g.function = r.function;
        g.spec = r.spec;
        g.elements += r.elements;
        if (std::find(g.tenants.begin(), g.tenants.end(), r.tenant) ==
            g.tenants.end())
            g.tenants.push_back(r.tenant);
    }
    std::map<uint64_t, MethodSpec> staticPick; ///< key hash -> spec
    uint32_t retunedConfigs = 0;
    for (auto& [hash, g] : groups) {
        double strictest = 0.0;
        bool allConstrained = true;
        for (uint64_t tenant : g.tenants) {
            double bound = slaFor(tenant).maxRmse;
            if (bound <= 0.0) {
                allConstrained = false;
                break;
            }
            strictest = strictest > 0.0 ? std::min(strictest, bound)
                                        : bound;
        }
        if (!allConstrained || strictest <= 0.0)
            continue;
        TunerConstraints tc;
        tc.metric = ErrorMetric::Auto;
        tc.placement = g.spec.placement;
        tc.expectedEvaluations = g.elements;
        tc.sampleSize = 1024;
        std::optional<TunerResult> pick =
            recommendSpec(g.function, strictest, tc);
        if (!pick)
            continue;
        sim::serve::TableKey picked =
            batchTableKey(g.function, pick->best.spec);
        if (picked.hash != hash) {
            staticPick[hash] = pick->best.spec;
            ++retunedConfigs;
        }
    }
    std::vector<TraceRequest> staticTrace = trace;
    for (TraceRequest& r : staticTrace) {
        auto it = staticPick.find(batchTableKey(r.function, r.spec).hash);
        if (it != staticPick.end())
            r.spec = it->second;
    }

    enum class Mode
    {
        AsRequested,
        StaticBest,
        Online,
    };

    ReplayResult results[3];
    for (Mode mode :
         {Mode::AsRequested, Mode::StaticBest, Mode::Online}) {
        std::fill(outputs.begin(), outputs.end(), 0.0f);
        sim::PimSystem sys(dpus);
        EvaluatorCatalog catalog;
        catalog.setChunkElements(chunk);

        std::optional<OnlineAutoTuner> tuner;
        if (mode == Mode::Online) {
            AutoTunerOptions topts;
            topts.exploreElements = explore;
            topts.maxCandidates = candidates;
            topts.mramBudgetBytes = mramBudget;
            if (defaultSla)
                topts.defaultSla = *defaultSla;
            tuner.emplace(catalog, topts);
            for (const auto& [tenant, sla] : slas)
                tuner->setTenantSla(tenant, sla);
        }

        sim::serve::BatchQueue queue;
        enqueueTrace(mode == Mode::StaticBest ? staticTrace : trace,
                     catalog, inputs.data(), outputs.data(), queue);
        queue.close();

        sim::serve::PipelineOptions popts;
        popts.numTasklets = tasklets;
        popts.perDpuElements = perDpuElements;
        if (tuner)
            popts.autoTuner = &*tuner;
        sim::serve::ServePipeline pipeline(sys, catalog.provider(),
                                           popts);
        ReplayResult& rr = results[static_cast<int>(mode)];
        rr.report = pipeline.run(queue);
        for (const sim::serve::WaveStats& w : rr.report.waveStats)
            rr.totalCycles += w.totalCycles;
        rr.tenantError = measureError(trace, inputs, outputs);
        if (tuner) {
            rr.decisions = tuner->decisions();
            rr.streams = tuner->streamReports();
        }
    }

    const ReplayResult& asReq = results[0];
    const ReplayResult& staticBest = results[1];
    const ReplayResult& online = results[2];

    // Online ground truth against each tenant's accuracy clauses.
    bool slaMet = true;
    for (const auto& [tenant, te] : online.tenantError) {
        sim::serve::TenantSla sla = slaFor(tenant);
        if (sla.maxRmse > 0.0 && te.rmse() > sla.maxRmse)
            slaMet = false;
        if (sla.maxUlp > 0.0 && te.maxUlp > sla.maxUlp)
            slaMet = false;
    }
    bool complete = asReq.report.complete &&
                    staticBest.report.complete &&
                    online.report.complete;

    uint64_t switches = 0;
    for (const StreamReport& s : online.streams)
        switches += s.switches;

    std::cout << "== pimtune: " << trace.size() << " request"
              << (trace.size() == 1 ? "" : "s") << ", " << total
              << " elements, " << online.tenantError.size()
              << " tenant"
              << (online.tenantError.size() == 1 ? "" : "s")
              << " over " << dpus << " DPUs\n\n";

    std::cout << "-- replays (modeled DPU cycles, summed over"
                 " participating cores)\n";
    auto replayLine = [&](const char* name, const ReplayResult& rr) {
        std::printf("   %-14s %14llu cycles  %12.6f s makespan"
                    "  %s\n",
                    name,
                    static_cast<unsigned long long>(rr.totalCycles),
                    rr.report.modeledSeconds,
                    rr.report.complete ? "complete" : "INCOMPLETE");
    };
    replayLine("as-requested", asReq);
    replayLine("static-best", staticBest);
    replayLine("online", online);
    if (staticBest.totalCycles > 0) {
        double ratio = static_cast<double>(online.totalCycles) /
                       static_cast<double>(staticBest.totalCycles);
        long long saved =
            static_cast<long long>(staticBest.totalCycles) -
            static_cast<long long>(online.totalCycles);
        std::printf("   online vs static-best: %.4fx cycles"
                    " (%lld saved), %u config%s re-picked"
                    " statically\n",
                    ratio, saved, retunedConfigs,
                    retunedConfigs == 1 ? "" : "s");
    }

    std::cout << "\n-- tenants (ground-truth error over full output"
                 " buffers)\n";
    for (const auto& [tenant, te] : online.tenantError) {
        sim::serve::TenantSla sla = slaFor(tenant);
        std::string slaText =
            sla.constrained() ? sla.toText() : "(none)";
        auto reqIt = asReq.tenantError.find(tenant);
        double reqRmse = reqIt != asReq.tenantError.end()
                             ? reqIt->second.rmse()
                             : 0.0;
        bool met = true;
        if (sla.maxRmse > 0.0 && te.rmse() > sla.maxRmse)
            met = false;
        if (sla.maxUlp > 0.0 && te.maxUlp > sla.maxUlp)
            met = false;
        std::printf("   tenant %-4llu sla %-24s rmse %.3e ->"
                    " %.3e online (max %.0f ulp) %s\n",
                    static_cast<unsigned long long>(tenant),
                    slaText.c_str(), reqRmse, te.rmse(), te.maxUlp,
                    sla.constrained() ? (met ? "met" : "MISSED")
                                      : "untuned");
    }

    if (!online.streams.empty()) {
        std::cout << "\n-- streams (online)\n";
        for (const StreamReport& s : online.streams) {
            std::printf("   tenant %-4llu %-34s -> %-34s %s"
                        " %9.1f cyc/el  rmse %.3e\n",
                        static_cast<unsigned long long>(s.tenant),
                        s.requested.c_str(), s.chosen.c_str(),
                        s.tunable
                            ? (s.committed ? "committed"
                                           : "exploring")
                            : "untunable",
                        s.cyclesPerElement, s.rmse);
        }
    }

    if (!online.decisions.empty()) {
        std::cout << "\n-- decisions (online, " << switches
                  << " wave route switch"
                  << (switches == 1 ? "" : "es") << ")\n";
        for (const sim::serve::TuneDecision& d : online.decisions)
            std::printf("   #%-3llu tenant %-4llu %-10s %s -> %s\n",
                        static_cast<unsigned long long>(d.sequence),
                        static_cast<unsigned long long>(d.tenant),
                        d.reason.c_str(), d.fromTable.c_str(),
                        d.toTable.c_str());
    }

    if (!jsonPath.empty()) {
        std::ostringstream json;
        char buf[64];
        auto secs = [&](double v) -> const char* {
            std::snprintf(buf, sizeof(buf), "%.9e", v);
            return buf;
        };
        auto replayJson = [&](const char* name,
                              const ReplayResult& rr) {
            json << "  \"" << name << "\": {\n"
                 << "    \"total_cycles\": " << rr.totalCycles
                 << ",\n    \"compute_cycles\": "
                 << rr.report.computeCycles
                 << ",\n    \"waves\": " << rr.report.waves
                 << ",\n    \"modeled_seconds\": "
                 << secs(rr.report.modeledSeconds)
                 << ",\n    \"complete\": "
                 << (rr.report.complete ? "true" : "false")
                 << "\n  }";
        };
        json << "{\n  \"requests\": " << trace.size()
             << ",\n  \"elements\": " << total
             << ",\n  \"tenants\": " << online.tenantError.size()
             << ",\n  \"dpus\": " << dpus << ",\n";
        replayJson("as_requested", asReq);
        json << ",\n";
        replayJson("static_best", staticBest);
        json << ",\n";
        replayJson("online", online);
        double ratio =
            staticBest.totalCycles > 0
                ? static_cast<double>(online.totalCycles) /
                      static_cast<double>(staticBest.totalCycles)
                : 0.0;
        std::snprintf(buf, sizeof(buf), "%.6f", ratio);
        json << ",\n  \"static_retuned_configs\": " << retunedConfigs
             << ",\n  \"online_switches\": " << switches
             << ",\n  \"online_decisions\": "
             << online.decisions.size()
             << ",\n  \"cycles_saved_vs_static\": "
             << (static_cast<long long>(staticBest.totalCycles) -
                 static_cast<long long>(online.totalCycles))
             << ",\n  \"cycles_ratio_vs_static\": " << buf
             << ",\n  \"sla_met\": " << (slaMet ? "true" : "false")
             << ",\n  \"tenant_results\": [";
        bool first = true;
        for (const auto& [tenant, te] : online.tenantError) {
            sim::serve::TenantSla sla = slaFor(tenant);
            auto reqIt = asReq.tenantError.find(tenant);
            auto stIt = staticBest.tenantError.find(tenant);
            json << (first ? "" : ",") << "\n    {\"tenant\": "
                 << tenant << ", \"sla\": \""
                 << (sla.constrained() ? sla.toText() : "")
                 << "\", \"rmse_as_requested\": "
                 << secs(reqIt != asReq.tenantError.end()
                             ? reqIt->second.rmse()
                             : 0.0);
            json << ", \"rmse_static\": "
                 << secs(stIt != staticBest.tenantError.end()
                             ? stIt->second.rmse()
                             : 0.0);
            json << ", \"rmse_online\": " << secs(te.rmse());
            json << ", \"max_ulp_online\": " << secs(te.maxUlp)
                 << "}";
            first = false;
        }
        json << "\n  ]\n}\n";
        if (jsonPath == "-") {
            std::cout << "\n" << json.str();
        } else {
            std::ofstream jsonOut(jsonPath);
            if (!jsonOut) {
                std::cerr << "pimtune: cannot write '" << jsonPath
                          << "'\n";
                return 2;
            }
            jsonOut << json.str();
            std::cout << "\nwrote " << jsonPath << "\n";
        }
    }

    return complete && slaMet ? 0 : 1;
}
