/**
 * @file
 * perfbench: the repository benchmark. Replays one named workload (a
 * closed batch: the whole trace is pushed at modeled t = 0, the queue
 * is closed, and one consumer serves it) through the public serve API,
 * EvaluatorCatalog -> BatchQueue -> ServePipeline (FleetScheduler when
 * a Topology is set), checks the outputs, and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 replays the workload for S seconds and prints the
 * end-to-end metrics: medians of host time over the replays, the
 * process peak RSS, and the modeled metrics, which must repeat
 * exactly across replays. --trace 1 does the same replays, then one
 * traced replay with host-time spans around the benchmark's calls into
 * each layer, a queue-only replay, a half-trace replay and the layer
 * ladder, and prints the per-layer metrics. The last line of standard
 * output is one JSON object; the exit code is 0 only if every check
 * passed. README.md in this directory documents every metric.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error_metrics.h"
#include "common/instr_sink.h"
#include "pimsim/obs/journal.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/thread_pool.h"
#include "softfloat/softfloat_batch.h"
#include "spans.h"
#include "transpim/auto_tuner.h"
#include "transpim/reference.h"
#include "transpim/serve_glue.h"
#include "transpim/tuner.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace obs = tpl::obs;
namespace sim = tpl::sim;
namespace sv = tpl::sim::serve;
namespace tp = tpl::transpim;

/** Tasklets per launch and streaming chunk, the serve defaults. */
constexpr uint32_t kTasklets = 16;
constexpr uint32_t kChunkElements = 32;

/** Output elements compared bit for bit per replay (stride sample). */
constexpr uint64_t kCheckSamples = 65536;

/** Timed replays per process (after one untimed warm-up), and
 * first-half replays of the scaling probe. */
constexpr int kMinReplays = 3;

/** Each ladder level is timed for at least this long per config. */
constexpr double kLadderSeconds = 0.005;

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t pages = 0;
    uint64_t resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** The modeled end-to-end metrics of one replay; deterministic. */
struct Modeled
{
    double makespan = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double cyclesPerElement = 0.0;

    bool operator==(const Modeled&) const = default;
};

/** What one replay measured. */
struct Replay
{
    double setupS = 0.0;
    double runS = 0.0;
    double checkS = 0.0;
    double teardownS = 0.0;
    double totalS = 0.0; ///< first setup instant to end of teardown
    double rssSetupMb = 0.0;
    double rssRunMb = 0.0;
    uint64_t requests = 0;
    uint64_t failedRequests = 0;
    uint64_t elements = 0;
    Modeled modeled;
    sv::ServeReport report;
    obs::LatencySummary latency;
    double queueWaitMean = 0.0;
    double transferMean = 0.0;
    double computeMean = 0.0;
    double stallMean = 0.0;
    std::map<uint64_t, double> tenantRmse;
};

/**
 * Output checks. Untuned workloads: a stride sample of outputs must
 * equal, bit for bit, a host-side evalBatch of the same configuration.
 * Tuned workloads: each tenant's RMSE against the double reference
 * must meet its SLA (the tuner may reroute, so bits legitimately
 * differ). Host evaluators are built once per process.
 */
class Checker
{
  public:
    explicit Checker(const Workload& w) : w_(w) {}

    /** Marks failed requests in @p failed (one flag per request). */
    void
    check(std::span<const TraceRequest> trace,
          const std::vector<float>& inputs,
          const std::vector<float>& outputs, std::vector<bool>& failed,
          std::map<uint64_t, double>& tenantRmse)
    {
        if (w_.tuned())
            checkSlas(trace, inputs, outputs, failed, tenantRmse);
        else
            checkBits(trace, inputs, outputs, failed);
    }

  private:
    void
    checkBits(std::span<const TraceRequest> trace,
              const std::vector<float>& inputs,
              const std::vector<float>& outputs,
              std::vector<bool>& failed)
    {
        const uint64_t stride =
            std::max<uint64_t>(1, inputs.size() / kCheckSamples) | 1;
        struct Sample
        {
            std::vector<uint64_t> index;
            std::vector<size_t> request;
            std::vector<float> in;
        };
        std::map<uint64_t, Sample> byConfig;
        uint64_t off = 0;
        for (size_t r = 0; r < trace.size(); ++r) {
            const uint64_t end = off + trace[r].elements;
            const uint64_t key =
                tp::batchTableKey(trace[r].function, trace[r].spec).hash;
            for (uint64_t i = (off + stride - 1) / stride * stride;
                 i < end; i += stride) {
                Sample& s = byConfig[key];
                s.index.push_back(i);
                s.request.push_back(r);
                s.in.push_back(inputs[i]);
            }
            off = end;
        }
        for (auto& [key, s] : byConfig) {
            const TraceRequest& r = trace[s.request.front()];
            const tp::FunctionEvaluator& ev = evaluator(key, r);
            std::vector<float> expect(s.in.size());
            ev.evalBatch(s.in, expect);
            for (size_t k = 0; k < s.in.size(); ++k)
                if (std::memcmp(&expect[k], &outputs[s.index[k]],
                                sizeof(float)) != 0)
                    failed[s.request[k]] = true;
        }
    }

    void
    checkSlas(std::span<const TraceRequest> trace,
              const std::vector<float>& inputs,
              const std::vector<float>& outputs,
              std::vector<bool>& failed,
              std::map<uint64_t, double>& tenantRmse)
    {
        struct Error
        {
            double sumSq = 0.0;
            uint64_t samples = 0;
        };
        std::map<uint64_t, Error> errors;
        uint64_t off = 0;
        for (const TraceRequest& r : trace) {
            const bool relative = tp::resolveMetric(r.function) ==
                                  tp::ErrorMetric::Relative;
            Error& e = errors[r.tenant];
            for (uint32_t i = 0; i < r.elements; ++i) {
                const double ref = tp::referenceValue(
                    r.function, static_cast<double>(inputs[off + i]));
                double err = static_cast<double>(outputs[off + i]) - ref;
                if (relative)
                    err /= std::max(1.0, std::fabs(ref));
                e.sumSq += err * err;
                ++e.samples;
            }
            off += r.elements;
        }
        for (const auto& [tenant, e] : errors) {
            const double rmse =
                e.samples ? std::sqrt(e.sumSq / e.samples) : 0.0;
            tenantRmse[tenant] = rmse;
            auto sla = w_.slas.find(tenant);
            const bool met = std::isfinite(rmse) &&
                             (sla == w_.slas.end() ||
                              sla->second.maxRmse <= 0.0 ||
                              rmse <= sla->second.maxRmse);
            if (met)
                continue;
            for (size_t k = 0; k < trace.size(); ++k)
                if (trace[k].tenant == tenant)
                    failed[k] = true;
        }
    }

    const tp::FunctionEvaluator&
    evaluator(uint64_t key, const TraceRequest& r)
    {
        auto it = evaluators_.find(key);
        if (it == evaluators_.end())
            it = evaluators_
                     .emplace(key, tp::FunctionEvaluator::create(
                                       r.function, r.spec))
                     .first;
        return it->second;
    }

    const Workload& w_;
    std::map<uint64_t, tp::FunctionEvaluator> evaluators_;
};

/** Push every request of @p trace into @p queue, registering its
 * configuration in @p catalog, with spans laid out back to back in
 * @p in and @p out; then close the queue. */
void
fillQueue(sv::BatchQueue& queue, tp::EvaluatorCatalog& catalog,
          std::span<const TraceRequest> trace, const float* in, float* out)
{
    uint64_t off = 0;
    for (const TraceRequest& r : trace) {
        sv::Request req;
        req.table = catalog.add(r.function, r.spec);
        req.tenant = r.tenant;
        req.input = in + off;
        req.output = out + off;
        req.elements = r.elements;
        queue.push(req);
        off += r.elements;
    }
    queue.close();
}

/**
 * One replay of the first @p requests requests of @p w on a fresh
 * system. With @p spans set, the layer seams record into it (the
 * traced replay); the modeled schedule never sees the difference.
 */
Replay
replay(const Workload& w, size_t requests, uint64_t seed,
       Checker& checker, SpanLog* spans)
{
    Replay out;
    const std::span<const TraceRequest> trace(w.trace.data(), requests);
    const Clock::time_point t0 = Clock::now();
    Clock::time_point tTeardown;
    {
        // ---- setup: system, inputs, catalog, queue fill
        auto sys = std::make_unique<sim::PimSystem>(w.dpus);
        std::vector<float> inputs = makeInputs(trace, seed);
        std::vector<float> outputs(inputs.size(), 0.0f);
        tp::EvaluatorCatalog catalog;
        catalog.setChunkElements(kChunkElements);
        sv::BatchQueue queue;
        fillQueue(queue, catalog, trace, inputs.data(), outputs.data());

        obs::Journal journal;
        journal.setEventsEnabled(false); // latency records only
        sv::PipelineOptions popts;
        popts.numTasklets = kTasklets;
        popts.perDpuElements = w.perDpuElements;
        popts.journal = &journal;
        if (w.topology)
            popts.topology = &*w.topology;

        std::optional<tp::OnlineAutoTuner> tuner;
        std::optional<TracedTuner> tracedTuner;
        if (w.tuned()) {
            tp::AutoTunerOptions topts;
            topts.exploreElements = w.exploreElements;
            tuner.emplace(catalog, topts);
            for (const auto& [tenant, sla] : w.slas)
                tuner->setTenantSla(tenant, sla);
            popts.autoTuner = &*tuner;
            if (spans)
                popts.autoTuner = &tracedTuner.emplace(*tuner, *spans);
        }
        sv::TableProvider provider = catalog.provider();
        if (spans)
            provider = tracedProvider(std::move(provider), *spans);
        sv::ServePipeline pipeline(*sys, std::move(provider), popts);
        const Clock::time_point t1 = Clock::now();
        out.setupS = seconds(t0, t1);
        out.rssSetupMb = currentRssMb();

        // ---- run
        const Clock::time_point t2 = Clock::now();
        out.report = pipeline.run(queue);
        const Clock::time_point t3 = Clock::now();
        out.runS = seconds(t2, t3);
        out.rssRunMb = currentRssMb();

        // ---- check: modeled metrics and outputs
        const Clock::time_point t4 = Clock::now();
        out.requests = requests;
        out.elements = out.report.elements;
        out.latency = journal.summarize(out.report.modeledSeconds);
        uint64_t totalCycles = 0;
        for (const sv::WaveStats& ws : out.report.waveStats)
            totalCycles += ws.totalCycles;
        out.modeled.makespan = out.report.modeledSeconds;
        out.modeled.p50 = out.latency.p50;
        out.modeled.p99 = out.latency.p99;
        out.modeled.cyclesPerElement = ratio(
            static_cast<double>(totalCycles),
            static_cast<double>(out.report.elements));

        // A request fails unless the journal saw it complete and its
        // sampled outputs pass the check.
        std::vector<bool> failed(requests, true);
        uint64_t complete = 0;
        for (const obs::RequestLatency& lat : journal.latencies()) {
            if (lat.request == 0 || lat.request > requests ||
                !lat.complete)
                continue;
            failed[lat.request - 1] = false;
            out.queueWaitMean += lat.queueWaitSeconds;
            out.transferMean += lat.transferSeconds;
            out.computeMean += lat.computeSeconds;
            out.stallMean += lat.stallSeconds;
            ++complete;
        }
        const double n = complete ? static_cast<double>(complete) : 1.0;
        out.queueWaitMean /= n;
        out.transferMean /= n;
        out.computeMean /= n;
        out.stallMean /= n;
        checker.check(trace, inputs, outputs, failed, out.tenantRmse);
        out.failedRequests = static_cast<uint64_t>(
            std::count(failed.begin(), failed.end(), true));
        out.checkS = seconds(t4, Clock::now());
        tTeardown = Clock::now();
    }
    const Clock::time_point t5 = Clock::now();
    out.teardownS = seconds(tTeardown, t5);
    out.totalS = seconds(t0, t5);
    return out;
}

/** Host seconds of popping every wave of the trace off a fresh queue
 * at the serve loops' wave budget (pushes are not timed). */
double
queueOnlyReplay(const Workload& w, uint64_t& pops)
{
    std::vector<float> buffer(totalElements(w.trace));
    tp::EvaluatorCatalog catalog;
    sv::BatchQueue queue;
    fillQueue(queue, catalog, w.trace, buffer.data(), buffer.data());
    pops = 0;
    const Clock::time_point start = Clock::now();
    while (queue.popWave(w.waveBudget()))
        ++pops;
    return seconds(start, Clock::now());
}

/** Per-element (per-op) host cost at the three lowest ladder levels,
 * weighted by each configuration's share of the trace's elements. */
struct Ladder
{
    double softfloatNsPerOp = 0.0;
    double evalNsPerElement = 0.0;
    double launchNsPerElement = 0.0;
};

/** Repeat @p body until kLadderSeconds elapsed (at least 3 times);
 * host nanoseconds per call. */
template <typename F>
double
nsPerCall(F&& body)
{
    uint64_t calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
        body();
        ++calls;
        elapsed = seconds(start, Clock::now());
    } while (elapsed < kLadderSeconds || calls < 3);
    return elapsed * 1e9 / static_cast<double>(calls);
}

Ladder
ladder(const Workload& w, uint64_t seed)
{
    const std::vector<float> inputs = makeInputs(w.trace, seed);
    Ladder out;
    // Charges are computed and counted, as inside a kernel.
    tpl::CountingSink sink;

    // softfloat: batched binary32 multiply and add over the inputs.
    {
        const size_t n = std::min<size_t>(inputs.size(), 16384);
        std::span<const float> a(inputs.data(), n);
        std::vector<float> b(inputs.rbegin(), inputs.rbegin() + n);
        std::vector<float> c(n);
        out.softfloatNsPerOp = nsPerCall([&] {
                                   tpl::sf::mulN(a, b, c, &sink);
                                   tpl::sf::addN(a, c, c, &sink);
                               }) /
                               static_cast<double>(2 * n);
    }

    // evaluator and launch levels, per configuration of the trace.
    struct Config
    {
        const TraceRequest* request = nullptr;
        uint64_t elements = 0;
        std::vector<float> sample;
    };
    std::map<uint64_t, Config> configs;
    uint64_t off = 0;
    for (const TraceRequest& r : w.trace) {
        Config& c = configs[tp::batchTableKey(r.function, r.spec).hash];
        c.request = &r;
        c.elements += r.elements;
        for (uint32_t i = 0; i < r.elements && c.sample.size() < 4096;
             ++i)
            c.sample.push_back(inputs[off + i]);
        off += r.elements;
    }
    const double total = static_cast<double>(totalElements(w.trace));
    for (const auto& [key, c] : configs) {
        const double weight = static_cast<double>(c.elements) / total;
        tp::FunctionEvaluator ev = tp::FunctionEvaluator::create(
            c.request->function, c.request->spec);

        std::vector<float> y(c.sample.size());
        out.evalNsPerElement +=
            weight *
            nsPerCall([&] { ev.evalBatch(c.sample, y, &sink); }) /
            static_cast<double>(c.sample.size());

        // One serve slice: perDpuElements elements on one core.
        sim::DpuCore core;
        ev.attach(core);
        sim::ShardTask task;
        task.elements = w.perDpuElements;
        const uint32_t bytes = task.elements * sizeof(float);
        task.inAddr = core.mramAlloc(bytes);
        task.outAddr = core.mramAlloc(bytes);
        std::vector<float> slice(task.elements);
        for (uint32_t i = 0; i < task.elements; ++i)
            slice[i] = c.sample[i % c.sample.size()];
        core.hostWriteMram(task.inAddr, slice.data(), bytes);
        const sim::Kernel kernel =
            tp::makeStreamingKernel(ev, task, kChunkElements);
        out.launchNsPerElement +=
            weight * nsPerCall([&] { core.launch(kTasklets, kernel); }) /
            static_cast<double>(task.elements);
    }
    return out;
}

/** One named metric value, printed in the result line. */
struct Metric
{
    const char* name;
    const char* unit;
    double value;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::printf("%-36s %22s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics)
        std::printf("%-36s %22.9g  %s\n", m.name, m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
                " \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, v, metrics[i].unit);
    }
    std::printf("}}\n");
}

uint64_t
registryCount(const char* name)
{
    return obs::Registry::global().counter(name).value();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N"
                 " --seconds S --trace 0|1\n");
    return 2;
}

int
run(int argc, char** argv)
{
    std::string name;
    std::optional<uint64_t> seed;
    double budget = -1.0;
    int traced = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            name = value;
        } else if (key == "--seed") {
            seed = std::strtoull(value, &end, 10);
        } else if (key == "--seconds") {
            budget = std::strtod(value, &end);
        } else if (key == "--trace") {
            traced = static_cast<int>(std::strtol(value, &end, 10));
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }
    if (argc % 2 != 1 || !seed || !(budget > 0.0) ||
        (traced != 0 && traced != 1))
        return usage();
    std::optional<Workload> workload = makeWorkload(name, *seed);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     name.c_str());
        return usage();
    }
    const Workload& w = *workload;
    const size_t requests = w.trace.size();
    const uint32_t threads = sim::ThreadPool::global().threadCount();
    std::printf("perfbench: workload %s, seed %llu, %zu requests, %llu"
                " elements, %u DPUs, %u simulation threads\n",
                w.name.c_str(), static_cast<unsigned long long>(*seed),
                requests,
                static_cast<unsigned long long>(totalElements(w.trace)),
                w.dpus, threads);

    Checker checker(w);
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool deterministic = true;
    std::optional<Modeled> modeled;
    auto account = [&](const Replay& r) {
        attempted += r.requests;
        failed += r.failedRequests;
    };
    auto accountFull = [&](const Replay& r) {
        account(r);
        if (modeled && !(*modeled == r.modeled))
            deterministic = false;
        modeled = r.modeled;
    };

    // ---- untraced replays: the end-to-end metrics
    std::vector<Replay> replays;
    accountFull(replay(w, requests, *seed, checker, nullptr)); // warm-up
    // The peak of one replay in a fresh process: later replays can
    // only add allocator fragmentation, not work.
    const double peakMb = peakRssMb();
    const Clock::time_point start = Clock::now();
    while (replays.size() < kMinReplays ||
           seconds(start, Clock::now()) < budget) {
        replays.push_back(replay(w, requests, *seed, checker, nullptr));
        accountFull(replays.back());
    }
    std::vector<double> setupS, runS, totalS;
    std::printf("replay run s:");
    for (const Replay& r : replays) {
        setupS.push_back(r.setupS);
        runS.push_back(r.runS);
        totalS.push_back(r.setupS + r.runS);
        std::printf(" %.4f", r.runS);
    }
    const Replay& last = replays.back();
    const double runMedian = median(runS);
    std::printf("\nreplays: %zu timed (+1 warm-up), median run %.6f s,"
                " median setup %.6f s\n",
                replays.size(), runMedian, median(setupS));
    std::printf("modeled latency over %llu requests: p50 %.9g s, p99"
                " %.9g s (%llu requests beyond p99)\n",
                static_cast<unsigned long long>(last.latency.requests),
                last.modeled.p50, last.modeled.p99,
                static_cast<unsigned long long>(
                    last.latency.requests / 100));
    for (const auto& [tenant, rmse] : last.tenantRmse)
        std::printf("tenant %llu rmse %.6e\n",
                    static_cast<unsigned long long>(tenant), rmse);

    if (!traced) {
        const bool correct = deterministic && failed == 0;
        if (!deterministic)
            std::printf("FAIL: modeled metrics differ across replays\n");
        printResult(
            correct, attempted, failed,
            {
                {"host_elements_per_s", "elements/s",
                 ratio(static_cast<double>(last.elements), runMedian)},
                {"setup_s", "s", median(setupS)},
                {"peak_rss_mb", "MB", peakMb},
                {"modeled_makespan_s", "s", last.modeled.makespan},
                {"modeled_latency_p50_s", "s", last.modeled.p50},
                {"modeled_latency_p99_s", "s", last.modeled.p99},
                {"modeled_cycles_per_element", "cycles/element",
                 last.modeled.cyclesPerElement},
                {"served_request_ratio", "ratio",
                 1.0 - ratio(static_cast<double>(failed),
                             static_cast<double>(attempted))},
            });
        return correct ? 0 : 1;
    }

    // ---- traced replay: spans and program counters
    SpanLog spans;
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.setEnabled(true);
    const Replay tr = replay(w, requests, *seed, checker, &spans);
    reg.setEnabled(false);
    account(tr);
    const bool neutral = modeled && *modeled == tr.modeled;

    // ---- queue-only replay and first-half replays
    uint64_t pops = 0;
    const double popS = queueOnlyReplay(w, pops);
    std::vector<double> halfRunS;
    for (int i = 0; i < kMinReplays; ++i) {
        const Replay half =
            replay(w, requests / 2, *seed, checker, nullptr);
        account(half);
        halfRunS.push_back(half.runS);
    }
    const Ladder lad = ladder(w, *seed);

    // Self times: the replay's root span split into its phases, and
    // the run span into the layer spans it covers; whatever no span
    // covers is the unattributed residual.
    const double bindS = spans.coveredSeconds(Layer::Bind);
    const double buildS = spans.coveredSeconds(Layer::KernelBuild);
    const double kernelS = spans.coveredSeconds(Layer::Kernel);
    const double routeS = spans.coveredSeconds(Layer::TunerRoute);
    const double observeS = spans.coveredSeconds(Layer::TunerObserve);
    const double serveSelfS = tr.runS - spans.coveredSeconds();
    const double unattributedS =
        tr.totalS - (tr.setupS + serveSelfS + bindS + buildS + kernelS +
                     routeS + observeS + tr.checkS + tr.teardownS);
    const double kernelBusyS = spans.busySeconds(Layer::Kernel);
    const double elements = static_cast<double>(tr.elements);

    uint64_t rankBroadcasts = 0;
    for (const sv::RankStats& rs : tr.report.rankStats)
        rankBroadcasts += rs.broadcasts;
    double transferS = 0.0;
    for (const sv::WaveStats& ws : tr.report.waveStats)
        transferS +=
            ws.broadcastSeconds + ws.scatterSeconds + ws.gatherSeconds;
    uint64_t floatOps = 0;
    for (const char* op : {"float_add", "float_mul", "float_div",
                           "float_sqrt", "float_cmp", "float_conv"})
        floatOps += registryCount(
            (std::string("pimsim/dpu/ops/") + op).c_str());

    const double waveNs = ratio(runMedian * 1e9, elements);
    const double requestNs = ratio(median(totalS) * 1e9, elements);
    const bool correct = deterministic && neutral && failed == 0;
    if (!deterministic)
        std::printf("FAIL: modeled metrics differ across replays\n");
    if (!neutral)
        std::printf("FAIL: traced replay changed a modeled metric\n");
    std::printf("traced replay %.6f s = setup + serve self + layer"
                " spans + check + teardown + unattributed\n",
                tr.totalS);
    printResult(
        correct, attempted, failed,
        {
            {"trace.replay_s", "s", tr.totalS},
            {"setup.self_s", "s", tr.setupS},
            {"serve.self_s", "s", serveSelfS},
            {"serve.queue.pop_s", "s", popS},
            {"serve.queue.pop_ns_per_request", "ns/request",
             ratio(popS * 1e9, static_cast<double>(requests))},
            {"serve.queue.pops", "count", static_cast<double>(pops)},
            {"serve.host_scaling_2x", "ratio",
             ratio(runMedian, median(halfRunS))},
            {"serve.waves", "count",
             static_cast<double>(tr.report.waves)},
            {"serve.cache_misses", "count",
             static_cast<double>(tr.report.cacheMisses)},
            {"serve.rank_broadcasts", "count",
             static_cast<double>(rankBroadcasts)},
            {"serve.overlap_fraction", "ratio",
             tr.report.overlapFraction()},
            {"transpim.bind.calls", "count",
             static_cast<double>(spans.count(Layer::Bind))},
            {"transpim.bind_s", "s", bindS},
            {"transpim.bind.table_bytes", "bytes",
             static_cast<double>(spans.tableBytes())},
            {"transpim.kernel.build_s", "s", buildS},
            {"transpim.kernel.self_s", "s", kernelS},
            {"transpim.kernel.busy_s", "s", kernelBusyS},
            {"transpim.kernel.ns_per_element", "ns/element",
             ratio(kernelBusyS * 1e9, elements)},
            {"transpim.tuner.route_s", "s", routeS},
            {"transpim.tuner.observe_s", "s", observeS},
            {"tuner.candidates", "count",
             static_cast<double>(registryCount("tuner/candidates"))},
            {"tuner.decisions", "count",
             static_cast<double>(registryCount("tuner/decisions"))},
            {"tuner.evictions", "count",
             static_cast<double>(registryCount("tuner/evictions"))},
            {"tuner.rerouted_waves", "count",
             static_cast<double>(registryCount("tuner/rerouted_waves"))},
            {"check.self_s", "s", tr.checkS},
            {"teardown.self_s", "s", tr.teardownS},
            {"unattributed_s", "s", unattributedS},
            {"pimsim.threads", "count", static_cast<double>(threads)},
            {"pimsim.pool_occupancy", "ratio",
             ratio(kernelBusyS, threads * tr.runS)},
            {"pimsim.dpu.instructions_per_element", "instr/element",
             ratio(static_cast<double>(
                       registryCount("pimsim/dpu/instructions")),
                   elements)},
            {"pimsim.dpu.stall_fraction", "ratio",
             ratio(static_cast<double>(
                       registryCount("pimsim/dpu/stall_cycles")),
                   static_cast<double>(
                       registryCount("pimsim/dpu/cycles")))},
            {"pimsim.dpu.launches", "count",
             static_cast<double>(registryCount("pimsim/dpu/launches"))},
            {"pimsim.transfer_s", "s", transferS},
            {"softfloat.ops_per_element", "ops/element",
             ratio(static_cast<double>(floatOps), elements)},
            {"modeled.queue_wait_mean_s", "s", tr.queueWaitMean},
            {"modeled.transfer_mean_s", "s", tr.transferMean},
            {"modeled.compute_mean_s", "s", tr.computeMean},
            {"modeled.stall_mean_s", "s", tr.stallMean},
            {"mem.rss_setup_mb", "MB", tr.rssSetupMb},
            {"mem.rss_run_mb", "MB", tr.rssRunMb},
            {"ladder.softfloat_ns_per_op", "ns/op", lad.softfloatNsPerOp},
            {"ladder.eval_ns_per_element", "ns/element",
             lad.evalNsPerElement},
            {"ladder.launch_ns_per_element", "ns/element",
             lad.launchNsPerElement},
            {"ladder.wave_ns_per_element", "ns/element", waveNs},
            {"ladder.request_ns_per_element", "ns/element", requestNs},
            {"ladder.eval_over_softfloat", "ratio",
             ratio(lad.evalNsPerElement, lad.softfloatNsPerOp)},
            {"ladder.launch_over_eval", "ratio",
             ratio(lad.launchNsPerElement, lad.evalNsPerElement)},
            {"ladder.wave_over_launch", "ratio",
             ratio(waveNs, lad.launchNsPerElement)},
            {"ladder.request_over_wave", "ratio",
             ratio(requestNs, waveNs)},
            {"trace.overhead_ratio", "ratio", ratio(tr.runS, runMedian)},
            {"failed_request_ratio", "ratio",
             ratio(static_cast<double>(failed),
                   static_cast<double>(attempted))},
        });
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
