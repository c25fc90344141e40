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
 * Each replay serves the trace through transpim::replayTrace, the
 * serve sequence pimserve runs.
 *
 * Exit status: 0 when all three replays completed and every
 * SLA-constrained tenant's online ground-truth error meets its
 * accuracy clauses, 1 otherwise, 2 on usage/parse errors, or when
 * the per-DPU buffers of --per-dpu-elements do not fit in MRAM.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pimsim/cli.h"
#include "pimsim/obs/metrics.h"
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

/** One replay's outcome. */
struct ModeResult
{
    ReplayReport replay;
    uint64_t totalCycles = 0; ///< sum of per-wave summed DPU cycles
    /** Ground-truth accuracy per tenant, measured host-side over
     * every output element. */
    std::map<uint64_t, TunerError> tenantError;
};

std::map<uint64_t, TunerError>
measureError(const std::vector<TraceRequest>& trace,
             const std::vector<float>& inputs,
             const std::vector<float>& outputs)
{
    std::map<uint64_t, TunerError> result;
    uint64_t off = 0;
    for (const TraceRequest& r : trace) {
        bool relative = resolveMetric(r.function) ==
                        ErrorMetric::Relative;
        TunerError& te = result[r.tenant];
        for (uint32_t i = 0; i < r.elements; ++i)
            te.add(outputs[off + i],
                   referenceValue(r.function,
                                  static_cast<double>(inputs[off + i])),
                   relative);
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
    uint32_t explore = 512;
    uint32_t seed = 0x7ea9c0de;
    bool anySlaArg = false;
    ReplayOptions ropts;
    AutoTunerOptions topts;

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
                ropts.tenantSlas[*parsed.tenant] = parsed.sla;
            else
                topts.defaultSla = parsed.sla;
        } else if (arg == "--dpus") {
            flags.u32(ropts.dpus);
        } else if (arg == "--tasklets") {
            flags.parse(ropts.tasklets, cli::parseTasklets);
        } else if (arg == "--per-dpu-elements") {
            flags.parse(ropts.perDpuElements, parsePerDpuElements);
        } else if (arg == "--chunk") {
            flags.parse(ropts.chunk, parseChunk);
        } else if (arg == "--explore") {
            flags.u32(explore);
        } else if (arg == "--candidates") {
            flags.u32(topts.maxCandidates);
        } else if (arg == "--mram-budget") {
            flags.u64(topts.mramBudgetBytes);
        } else if (arg == "--seed") {
            flags.u32(seed);
        } else if (arg == "--json") {
            jsonPath = flags.value();
        } else {
            flags.unknown();
        }
    }

    if (tracePath.empty() == !demo || (demo && demoRequests == 0) ||
        ropts.dpus == 0 || topts.maxCandidates == 0) {
        usage();
        return 2;
    }

    std::vector<TraceRequest> trace;
    if (demo) {
        trace = demoTrace(demoRequests);
        if (!anySlaArg) {
            sim::serve::TenantSla sla;
            sim::serve::TenantSla::parse("rmse<8e-8", sla);
            ropts.tenantSlas[1] = sla;
            sim::serve::TenantSla::parse("rmse<1e-3", sla);
            ropts.tenantSlas[2] = sla;
            ropts.tenantSlas[3] = sla;
        }
    } else {
        std::string error;
        if (!readTraceFile(tracePath, trace, error)) {
            std::cerr << "pimtune: " << error << "\n";
            return 2;
        }
    }

    auto slaFor = [&](uint64_t tenant) {
        auto it = ropts.tenantSlas.find(tenant);
        return it != ropts.tenantSlas.end() ? it->second
                                            : topts.defaultSla;
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

    // As requested, static-best, online.
    ModeResult results[3];
    for (int mode = 0; mode < 3; ++mode) {
        std::fill(outputs.begin(), outputs.end(), 0.0f);
        if (mode == 2) {
            topts.exploreElements = explore;
            ropts.tuner = topts;
        }
        ModeResult& rr = results[mode];
        rr.replay = replayTrace(mode == 1 ? staticTrace : trace, inputs,
                                outputs, ropts);
        if (!rr.replay.error.empty()) {
            std::cerr << "pimtune: " << rr.replay.error << "\n";
            return 2;
        }
        for (const sim::serve::WaveStats& w : rr.replay.report.waveStats)
            rr.totalCycles += w.totalCycles;
        rr.tenantError = measureError(trace, inputs, outputs);
    }

    const ModeResult& asReq = results[0];
    const ModeResult& staticBest = results[1];
    const ModeResult& online = results[2];

    bool complete = asReq.replay.report.complete &&
                    staticBest.replay.report.complete &&
                    online.replay.report.complete;

    uint64_t switches = 0;
    for (const StreamReport& s : online.replay.streams)
        switches += s.switches;

    std::cout << "== pimtune: " << trace.size() << " request"
              << (trace.size() == 1 ? "" : "s") << ", " << total
              << " elements, " << online.tenantError.size()
              << " tenant"
              << (online.tenantError.size() == 1 ? "" : "s")
              << " over " << ropts.dpus << " DPUs\n\n";

    std::cout << "-- replays (modeled DPU cycles, summed over"
                 " participating cores)\n";
    auto replayLine = [&](const char* name, const ModeResult& rr) {
        std::printf("   %-14s %14llu cycles  %12.6f s makespan"
                    "  %s\n",
                    name,
                    static_cast<unsigned long long>(rr.totalCycles),
                    rr.replay.report.modeledSeconds,
                    rr.replay.report.complete ? "complete"
                                              : "INCOMPLETE");
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

    // Online ground truth against each tenant's accuracy clauses.
    bool slaMet = true;
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
        bool met = te.within(sla.maxRmse, sla.maxUlp);
        slaMet = slaMet && met;
        std::printf("   tenant %-4llu sla %-24s rmse %.3e ->"
                    " %.3e online (max %.0f ulp) %s\n",
                    static_cast<unsigned long long>(tenant),
                    slaText.c_str(), reqRmse, te.rmse(), te.maxUlp,
                    sla.constrained() ? (met ? "met" : "MISSED")
                                      : "untuned");
    }

    if (!online.replay.streams.empty()) {
        std::cout << "\n-- streams (online)\n";
        for (const StreamReport& s : online.replay.streams) {
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

    if (!online.replay.decisions.empty()) {
        std::cout << "\n-- decisions (online, " << switches
                  << " wave route switch"
                  << (switches == 1 ? "" : "es") << ")\n";
        for (const sim::serve::TuneDecision& d :
             online.replay.decisions)
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
        auto replayJson = [&](const char* name, const ModeResult& rr) {
            const sim::serve::ServeReport& rep = rr.replay.report;
            json << "  \"" << name << "\": {\n"
                 << "    \"total_cycles\": " << rr.totalCycles
                 << ",\n    \"compute_cycles\": " << rep.computeCycles
                 << ",\n    \"waves\": " << rep.waves
                 << ",\n    \"modeled_seconds\": "
                 << secs(rep.modeledSeconds) << ",\n    \"complete\": "
                 << (rep.complete ? "true" : "false")
                 << "\n  }";
        };
        json << "{\n  \"requests\": " << trace.size()
             << ",\n  \"elements\": " << total
             << ",\n  \"tenants\": " << online.tenantError.size()
             << ",\n  \"dpus\": " << ropts.dpus << ",\n";
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
             << online.replay.decisions.size()
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
