/**
 * @file
 * pimserve: replay a request trace through the batched serving
 * pipeline and print sustained throughput plus the overlap the
 * double-buffered schedule wins over the no-overlap baseline (the
 * same legs issued back to back, ServeReport::syncSeconds).
 *
 *   pimserve --demo-trace > requests.trace   # built-in demo trace
 *   pimserve --trace requests.trace          # replay it
 *   pimserve --trace requests.trace --json - # machine-readable
 *
 * A trace is one request per line, in the grammar of
 * transpim/trace.h (shared with pimtune), and is served through
 * transpim::replayTrace. Requests with the same configuration
 * coalesce into shared waves and hit the table cache after the first
 * broadcast; requests from different tenants never share a wave.
 *
 * Options:
 *   --trace PATH           request trace to replay
 *   --demo-trace           alone: print a built-in demo trace and
 *                          exit. With any other option (but not
 *                          --trace) the demo trace is *replayed*
 *                          instead: a synthetic mixed-config trace of
 *                          --demo-requests requests (default
 *                          1000000) built in memory.
 *   --demo-requests N      size of the synthetic demo replay
 *   --topology DxRxP       fleet topology (e.g. 20x2x64: 20 DIMMs x
 *                          2 ranks x 64 DPUs); implies
 *                          --dpus D*R*P and per-rank scheduling
 *                          (see docs/fleet.md)
 *   --dpus N               simulated DPUs (default 64)
 *   --tasklets N           tasklets per DPU, 1..24 (default 16)
 *   --per-dpu-elements N   per-wave slice capacity per DPU, >= 1
 *                          (default 512)
 *   --chunk N              streaming-kernel chunk elements, 1..256
 *                          (default 32)
 *   --plan PATH            arm a fault plan (pimfault text format)
 *   --seed N               input-generation seed
 *   --json PATH            write a JSON summary ('-' for stdout)
 *   --metrics PATH         dump the metrics registry (serve/...)
 *   --journal PATH         write the per-request journal as JSONL
 *                          ('-' for stdout); see docs/observability.md
 *   --slo SPEC             check an SLO like p99<2ms or p50:150us
 *                          against modeled per-request latency
 *   --auto-tune            route waves through the online per-tenant
 *                          auto-tuner (docs/autotuner.md)
 *   --tenant-sla T:SPEC    SLA for tenant T ('*' = default SLA for
 *                          tenants without their own; repeatable;
 *                          implies --auto-tune). SPEC grammar:
 *                          docs/autotuner.md, e.g.
 *                          'rmse<1e-6;cycles:p99<600'
 *   --explore N            tuner: elements each candidate is
 *                          explored for before a stream commits
 *                          (default 2048)
 *
 * The trace is replayed once. Per-request modeled latency
 * (p50/p90/p99/p999, exact nearest-rank over the journal), sustained
 * requests/s and the speedup over the no-overlap baseline are always
 * reported.
 *
 * Exit status: 0 when every request was served completely (and the
 * --slo target, if given, was met, and no tuned stream ended on a
 * candidate violating its SLA), 1 when elements were dropped /
 * infeasible / the run is incomplete / the SLO or an SLA was missed,
 * 2 on usage or parse errors, or when the per-DPU buffers of
 * --per-dpu-elements do not fit in MRAM.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pimsim/cli.h"
#include "pimsim/obs/journal.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/topology.h"
#include "transpim/trace.h"

namespace {

using namespace tpl;
using namespace tpl::transpim;

void
usage()
{
    std::cerr
        << "usage: pimserve --trace PATH [--dpus N] [--tasklets N]\n"
           "                [--topology DxRxP]"
           " [--per-dpu-elements N]\n"
           "                [--chunk N] [--plan PATH] [--seed N]"
           " [--json PATH]\n"
           "                [--metrics PATH] [--journal PATH]"
           " [--slo SPEC]\n"
           "                [--auto-tune] [--tenant-sla T:SPEC]..."
           " [--explore N]\n"
           "       pimserve --demo-trace   # print the demo trace\n"
           "       pimserve --demo-trace [--demo-requests N] OPTION...\n"
           "                               # replay a synthetic demo"
           " trace\n"
           "                               # with any option but"
           " --trace\n";
}

/** A mixed inference-style burst: repeated configs hit the table
 * cache, the cos/exp switches force new broadcasts. */
const char* kDemoTrace =
    "# pimserve demo trace: replay with\n"
    "#   pimserve --trace <this file>\n"
    "request function=sin method=llut elements=32768\n"
    "request function=sin method=llut elements=32768\n"
    "request function=cos method=llut elements=32768\n"
    "request function=sin method=llut elements=16384\n"
    "request function=exp method=llut elements=32768\n"
    "request function=exp method=llut elements=32768\n";

/** Build the synthetic demo-replay trace: @p requests small
 * inference-style requests over four llut configs. Requests arrive
 * grouped into eight same-config phases (two passes over the four
 * configs) so waves coalesce deep same-table runs from the queue
 * front and the second pass exercises the table cache; element
 * counts cycle 8..24 (mean ~16). */
std::vector<TraceRequest>
demoReplayTrace(uint32_t requests)
{
    struct Cfg
    {
        Function function;
        Method method;
    };
    static const Cfg cfgs[4] = {
        {Function::Sin, Method::LLut},
        {Function::Cos, Method::LLut},
        {Function::Exp, Method::LLut},
        {Function::Sigmoid, Method::LLut},
    };
    std::vector<TraceRequest> trace;
    trace.reserve(requests);
    const uint32_t phases = 8;
    for (uint32_t i = 0; i < requests; ++i) {
        uint64_t phase =
            static_cast<uint64_t>(i) * phases / requests;
        const Cfg& cfg = cfgs[phase % 4];
        TraceRequest req;
        req.function = cfg.function;
        req.spec.method = cfg.method;
        req.elements = 8 + i % 17;
        trace.push_back(req);
    }
    return trace;
}

/** The JSON summary; the tuner section only when @p tuned. */
void
writeJson(std::ostream& out, const ReplayReport& replay,
          const obs::LatencySummary& lat, const obs::SloTracker* slo,
          const sim::Topology* topo, bool tuned)
{
    const sim::serve::ServeReport& rep = replay.report;
    out << "{\n"
        << "  \"requests\": " << rep.requests << ",\n"
        << "  \"elements\": " << rep.elements << ",\n"
        << "  \"waves\": " << rep.waves << ",\n"
        << "  \"cache_hits\": " << rep.cacheHits << ",\n"
        << "  \"cache_misses\": " << rep.cacheMisses << ",\n"
        << "  \"failed_dpus\": " << rep.failedDpus.size() << ",\n"
        << "  \"resharded_elements\": " << rep.reshardedElements
        << ",\n"
        << "  \"dropped_elements\": " << rep.droppedElements << ",\n"
        << "  \"infeasible_elements\": " << rep.infeasibleElements
        << ",\n"
        << "  \"complete\": " << (rep.complete ? "true" : "false")
        << ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9e", rep.modeledSeconds);
    out << "  \"modeled_seconds\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.9e", rep.syncSeconds);
    out << "  \"sync_seconds\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", rep.elementsPerSecond());
    out << "  \"elements_per_second\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.2f",
                  rep.overlapFraction() * 100.0);
    out << "  \"overlap_percent\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.4f", rep.speedup());
    out << "  \"speedup\": " << buf;
    auto secs = [&](double v) -> const char* {
        std::snprintf(buf, sizeof(buf), "%.9e", v);
        return buf;
    };
    out << ",\n  \"latency\": {\n"
        << "    \"requests\": " << lat.requests << ",\n"
        << "    \"incomplete\": " << lat.incomplete << ",\n"
        << "    \"p50\": " << secs(lat.p50) << ",\n"
        << "    \"p90\": " << secs(lat.p90) << ",\n"
        << "    \"p99\": " << secs(lat.p99) << ",\n"
        << "    \"p999\": " << secs(lat.p999) << ",\n"
        << "    \"mean\": " << secs(lat.mean) << ",\n"
        << "    \"max\": " << secs(lat.max) << "\n  },\n"
        << "  \"requests_per_second\": "
        << secs(lat.requestsPerSecond) << ",\n"
        << "  \"anomalous_waves\": " << rep.anomalousWaves;
    if (topo && !rep.rankStats.empty()) {
        out << ",\n  \"topology\": \"" << topo->toText()
            << "\",\n  \"ranks\": " << rep.rankStats.size()
            << ",\n  \"rank_stats\": [";
        bool first = true;
        for (const sim::serve::RankStats& r : rep.rankStats) {
            out << (first ? "" : ",") << "\n    {\"rank\": "
                << r.rank << ", \"waves\": " << r.waves
                << ", \"elements\": " << r.elements
                << ", \"compute_cycles\": " << r.computeCycles
                << ", \"makespan_seconds\": "
                << secs(r.makespanSeconds)
                << ", \"resident_tables\": " << r.residentTables
                << ", \"broadcasts\": " << r.broadcasts << "}";
            first = false;
        }
        out << "\n  ]";
    }
    if (slo) {
        out << ",\n  \"slo\": {\n    \"spec\": \""
            << slo->spec().toText() << "\",\n    \"tables\": [";
        bool first = true;
        for (const obs::SloResult& r : slo->results()) {
            out << (first ? "" : ",") << "\n      {\"table\": \""
                << r.table << "\", \"good\": " << r.good
                << ", \"bad\": " << r.bad << ", \"burn_rate\": "
                << secs(r.burnRate) << ", \"met\": "
                << (r.met ? "true" : "false") << "}";
            first = false;
        }
        const obs::SloResult total = slo->total();
        out << (first ? "" : "\n    ") << "],\n    \"good\": "
            << total.good << ",\n    \"bad\": " << total.bad
            << ",\n    \"burn_rate\": " << secs(total.burnRate)
            << ",\n    \"met\": " << (total.met ? "true" : "false")
            << "\n  }";
    }
    if (tuned) {
        uint64_t switches = 0;
        for (const StreamReport& s : replay.streams)
            switches += s.switches;
        out << ",\n  \"tuner\": {\n    \"route_switches\": "
            << switches << ",\n    \"decisions\": "
            << replay.decisions.size() << ",\n    \"streams\": [";
        bool first = true;
        for (const StreamReport& s : replay.streams) {
            out << (first ? "" : ",") << "\n      {\"tenant\": "
                << s.tenant << ", \"requested\": \"" << s.requested
                << "\", \"chosen\": \"" << s.chosen
                << "\", \"sla\": \"" << s.sla << "\", \"state\": \""
                << (s.tunable
                        ? (s.committed ? "committed" : "exploring")
                        : "untunable")
                << "\", \"elements\": " << s.elements;
            std::snprintf(buf, sizeof(buf), "%.1f",
                          s.cyclesPerElement);
            out << ", \"cycles_per_element\": " << buf;
            std::snprintf(buf, sizeof(buf), "%.6e", s.rmse);
            out << ", \"rmse\": " << buf << ", \"sla_violated\": "
                << (s.slaViolated ? "true" : "false") << "}";
            first = false;
        }
        out << "\n    ]\n  }";
    }
    out << "\n}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    std::string tracePath;
    std::string planPath;
    std::string jsonPath;
    std::string metricsPath;
    std::string journalPath;
    std::string sloText;
    bool demoTrace = false;
    bool autoTune = false;
    uint32_t demoRequests = 0;
    uint32_t explore = 2048;
    uint32_t seed = 0x7ea9c0de;
    ReplayOptions ropts;
    AutoTunerOptions topts;

    cli::Flags flags("pimserve", argc, argv, usage);
    while (flags.next()) {
        const std::string& arg = flags.arg();
        if (arg == "--trace") {
            tracePath = flags.value();
        } else if (arg == "--demo-trace") {
            demoTrace = true;
        } else if (arg == "--demo-requests") {
            flags.u32(demoRequests);
        } else if (arg == "--topology") {
            std::string spec = flags.value();
            ropts.topology = sim::Topology::parse(spec);
            if (!ropts.topology)
                flags.fail("bad --topology '" + spec +
                           "' (want DIMMSxRANKSxDPUS, e.g. 20x2x64)");
        } else if (arg == "--dpus") {
            flags.u32(ropts.dpus);
        } else if (arg == "--tasklets") {
            flags.parse(ropts.tasklets, cli::parseTasklets);
        } else if (arg == "--per-dpu-elements") {
            flags.parse(ropts.perDpuElements, parsePerDpuElements);
        } else if (arg == "--chunk") {
            flags.parse(ropts.chunk, parseChunk);
        } else if (arg == "--plan") {
            planPath = flags.value();
        } else if (arg == "--seed") {
            flags.u32(seed);
        } else if (arg == "--json") {
            jsonPath = flags.value();
        } else if (arg == "--metrics") {
            metricsPath = flags.value();
        } else if (arg == "--journal") {
            journalPath = flags.value();
        } else if (arg == "--slo") {
            sloText = flags.value();
        } else if (arg == "--auto-tune") {
            autoTune = true;
        } else if (arg == "--tenant-sla") {
            TenantSlaArg parsed;
            flags.parse(parsed, parseTenantSlaArg);
            autoTune = true;
            if (parsed.tenant)
                ropts.tenantSlas[*parsed.tenant] = parsed.sla;
            else
                topts.defaultSla = parsed.sla;
        } else if (arg == "--explore") {
            flags.u32(explore);
        } else {
            flags.unknown();
        }
    }

    // `--demo-trace` alone prints the demo trace file; with any other
    // option it replays a synthetic in-memory trace instead.
    if (demoTrace && argc == 2) {
        std::cout << kDemoTrace;
        return 0;
    }
    if (demoTrace && !tracePath.empty())
        flags.fail("--demo-trace and --trace cannot be combined");
    if (ropts.topology)
        ropts.dpus = ropts.topology->numDpus();
    if ((tracePath.empty() && !demoTrace) || ropts.dpus == 0) {
        usage();
        return 2;
    }

    std::vector<TraceRequest> trace;
    if (demoTrace) {
        trace =
            demoReplayTrace(demoRequests ? demoRequests : 1000000u);
    } else {
        std::string error;
        if (!readTraceFile(tracePath, trace, error)) {
            std::cerr << "pimserve: " << error << "\n";
            return 2;
        }
    }

    if (!planPath.empty()) {
        std::string error;
        if (!readPlanFile(planPath, ropts.plan.emplace(), error)) {
            std::cerr << "pimserve: " << error << "\n";
            return 2;
        }
    }

    std::optional<obs::SloSpec> sloSpec;
    if (!sloText.empty()) {
        obs::SloSpec spec;
        if (!obs::SloSpec::parse(sloText, spec)) {
            std::cerr << "pimserve: bad --slo spec '" << sloText
                      << "' (want e.g. p99<2ms or p50:150us)\n";
            return 2;
        }
        sloSpec = spec;
    }

    obs::Registry::global().setEnabled(true);

    std::vector<float> inputs = traceInputs(trace, seed);
    std::vector<float> outputs(inputs.size(), 0.0f);
    const uint64_t total = inputs.size();
    const size_t requests = trace.size();

    // One run of the whole trace on a fresh system.
    obs::Journal journal;
    // Per-request latencies are always tracked; the per-event stream
    // is only worth its memory when it will be written somewhere.
    if (journalPath.empty())
        journal.setEventsEnabled(false);
    ropts.journal = &journal;
    if (autoTune) {
        topts.exploreElements = explore;
        ropts.tuner = topts;
    }
    ReplayReport replay =
        replayTrace(std::move(trace), inputs, outputs, ropts);
    if (!replay.error.empty()) {
        std::cerr << "pimserve: " << replay.error << "\n";
        return 2;
    }
    const sim::serve::ServeReport& rep = replay.report;

    obs::LatencySummary latency =
        journal.summarize(rep.modeledSeconds);
    std::optional<obs::SloTracker> slo;
    if (sloSpec) {
        slo.emplace(*sloSpec);
        for (const obs::RequestLatency& lat : journal.latencies())
            slo->observe(lat.table, lat.latencySeconds(),
                         lat.complete);
    }

    std::cout << "== pimserve: " << requests << " request"
              << (requests == 1 ? "" : "s") << ", " << total
              << " elements over ";
    if (ropts.topology)
        std::cout << ropts.topology->toText() << " fleet ("
                  << ropts.dpus << " DPUs)";
    else
        std::cout << ropts.dpus << " DPUs";
    std::cout << " (double-buffered schedule)\n\n";

    std::cout << "-- pipeline\n";
    std::printf("   waves               %10llu\n",
                static_cast<unsigned long long>(rep.waves));
    std::printf("   table cache         %10llu hits, %llu misses\n",
                static_cast<unsigned long long>(rep.cacheHits),
                static_cast<unsigned long long>(rep.cacheMisses));
    std::printf("   failed DPUs         %10zu of %u\n",
                rep.failedDpus.size(), ropts.dpus);
    std::printf("   resharded elements  %10llu\n",
                static_cast<unsigned long long>(
                    rep.reshardedElements));
    std::printf("   dropped elements    %10llu\n",
                static_cast<unsigned long long>(rep.droppedElements));

    if (ropts.topology && !rep.rankStats.empty()) {
        double minSpan = rep.rankStats.front().makespanSeconds;
        double maxSpan = minSpan;
        double sumSpan = 0.0;
        uint64_t broadcasts = 0;
        uint64_t resident = 0;
        for (const sim::serve::RankStats& r : rep.rankStats) {
            minSpan = std::min(minSpan, r.makespanSeconds);
            maxSpan = std::max(maxSpan, r.makespanSeconds);
            sumSpan += r.makespanSeconds;
            broadcasts += r.broadcasts;
            resident += r.residentTables;
        }
        std::cout << "\n-- fleet " << ropts.topology->toText() << "\n";
        std::printf("   ranks               %10zu\n",
                    rep.rankStats.size());
        std::printf("   rank makespan       %13.6f s min, %.6f s"
                    " mean, %.6f s max\n",
                    minSpan, sumSpan / rep.rankStats.size(), maxSpan);
        std::printf("   rank broadcasts     %10llu (%llu resident"
                    " table slots)\n",
                    static_cast<unsigned long long>(broadcasts),
                    static_cast<unsigned long long>(resident));
        if (rep.rankStats.size() <= 8) {
            for (const sim::serve::RankStats& r : rep.rankStats)
                std::printf("   rank %-3u %10llu waves, %llu"
                            " elements, %.6f s\n",
                            r.rank,
                            static_cast<unsigned long long>(r.waves),
                            static_cast<unsigned long long>(
                                r.elements),
                            r.makespanSeconds);
        }
    }

    std::cout << "\n-- throughput (modeled)\n";
    std::printf("   makespan            %13.6f s\n",
                rep.modeledSeconds);
    std::printf("   synchronous cost    %13.6f s\n", rep.syncSeconds);
    std::printf("   sustained           %13.3e elements/s\n",
                rep.elementsPerSecond());
    std::printf("   overlap             %12.1f %%\n",
                rep.overlapFraction() * 100.0);
    std::printf("   speedup             %12.2fx\n", rep.speedup());
    std::printf("   complete            %13s\n",
                rep.complete ? "yes" : "NO");

    std::cout << "\n-- latency (modeled, per request)\n";
    std::printf("   p50                 %13.3e s\n", latency.p50);
    std::printf("   p90                 %13.3e s\n", latency.p90);
    std::printf("   p99                 %13.3e s\n", latency.p99);
    std::printf("   p99.9               %13.3e s\n", latency.p999);
    std::printf("   mean / max          %11.3e / %.3e s\n",
                latency.mean, latency.max);
    std::printf("   sustained           %13.3f requests/s\n",
                latency.requestsPerSecond);
    std::printf("   incomplete          %13llu\n",
                static_cast<unsigned long long>(latency.incomplete));
    if (rep.anomalousWaves > 0)
        std::printf("   straggler waves     %10llu of %llu flagged\n",
                    static_cast<unsigned long long>(
                        rep.anomalousWaves),
                    static_cast<unsigned long long>(rep.waves));

    if (slo) {
        const obs::SloResult total = slo->total();
        std::cout << "\n-- slo " << slo->spec().toText() << "\n";
        for (const obs::SloResult& r : slo->results())
            std::printf("   %-28s %6llu good, %llu bad, burn "
                        "%.3f -> %s\n",
                        r.table.c_str(),
                        static_cast<unsigned long long>(r.good),
                        static_cast<unsigned long long>(r.bad),
                        r.burnRate, r.met ? "met" : "MISSED");
        std::printf("   %-28s %6llu good, %llu bad, burn "
                    "%.3f -> %s\n",
                    "(all tables)",
                    static_cast<unsigned long long>(total.good),
                    static_cast<unsigned long long>(total.bad),
                    total.burnRate, total.met ? "met" : "MISSED");
    }

    if (autoTune) {
        uint64_t switches = 0;
        for (const StreamReport& s : replay.streams)
            switches += s.switches;
        std::cout << "\n-- tuner (" << replay.streams.size()
                  << " stream" << (replay.streams.size() == 1 ? "" : "s")
                  << ", " << switches << " wave route switch"
                  << (switches == 1 ? "" : "es") << ")\n";
        for (const StreamReport& s : replay.streams)
            std::printf("   tenant %-4llu %-34s -> %-34s %s"
                        " %9.1f cyc/el  rmse %.3e%s\n",
                        static_cast<unsigned long long>(s.tenant),
                        s.requested.c_str(), s.chosen.c_str(),
                        s.tunable
                            ? (s.committed ? "committed"
                                           : "exploring")
                            : "untunable",
                        s.cyclesPerElement, s.rmse,
                        s.slaViolated ? "  SLA VIOLATED" : "");
        for (const sim::serve::TuneDecision& d : replay.decisions)
            std::printf("   #%-3llu tenant %-4llu %-10s %s -> %s\n",
                        static_cast<unsigned long long>(d.sequence),
                        static_cast<unsigned long long>(d.tenant),
                        d.reason.c_str(), d.fromTable.c_str(),
                        d.toTable.c_str());
    }

    if (!jsonPath.empty()) {
        const obs::SloTracker* sloPtr = slo ? &*slo : nullptr;
        const sim::Topology* topoPtr =
            ropts.topology ? &*ropts.topology : nullptr;
        if (jsonPath == "-") {
            writeJson(std::cout, replay, latency, sloPtr, topoPtr,
                      autoTune);
        } else {
            std::ofstream jsonOut(jsonPath);
            if (!jsonOut) {
                std::cerr << "pimserve: cannot write '" << jsonPath
                          << "'\n";
                return 2;
            }
            writeJson(jsonOut, replay, latency, sloPtr, topoPtr,
                      autoTune);
            std::cout << "\nwrote " << jsonPath << "\n";
        }
    }
    if (!journalPath.empty()) {
        if (journalPath == "-") {
            std::cout << journal.toJsonl();
        } else if (!journal.writeJsonl(journalPath)) {
            std::cerr << "pimserve: cannot write '" << journalPath
                      << "'\n";
            return 2;
        } else {
            std::cout << "wrote " << journalPath << "\n";
        }
    }
    if (!metricsPath.empty()) {
        if (!obs::Registry::global().writeJson(metricsPath)) {
            std::cerr << "pimserve: cannot write '" << metricsPath
                      << "'\n";
            return 2;
        }
        std::cout << "wrote " << metricsPath << "\n";
    }
    if (!rep.complete)
        return 1;
    if (slo && !slo->total().met)
        return 1;
    for (const StreamReport& s : replay.streams)
        if (s.slaViolated)
            return 1;
    return 0;
}
