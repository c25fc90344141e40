/**
 * @file
 * Request-trace and CLI grammar (see trace.h).
 */

#include "transpim/trace.h"

#include <array>
#include <fstream>
#include <new>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "pimsim/cli.h"
#include "transpim/serve_glue.h"

namespace tpl {
namespace transpim {

namespace {

/** The CLI method spellings, in Method enum order. */
constexpr std::array<std::pair<std::string_view, Method>, 9> kMethods = {{
    {"cordic", Method::Cordic},
    {"cordic-fixed", Method::CordicFixed},
    {"cordic-lut", Method::CordicLut},
    {"mlut", Method::MLut},
    {"llut", Method::LLut},
    {"llut-fixed", Method::LLutFixed},
    {"dlut", Method::DLut},
    {"dllut", Method::DlLut},
    {"poly", Method::Poly},
}};

} // namespace

bool
parseChunk(const std::string& text, uint32_t& out, std::string& error)
{
    uint32_t n = 0;
    if (!cli::parseU32(text, n) || n < 1 || n > maxChunkElements) {
        error = "bad --chunk '" + text + "' (want 1.." +
                std::to_string(maxChunkElements) + ")";
        return false;
    }
    out = n;
    return true;
}

bool
parsePerDpuElements(const std::string& text, uint32_t& out,
                    std::string& error)
{
    uint32_t n = 0;
    if (!cli::parseU32(text, n) || n < 1) {
        error = "bad --per-dpu-elements '" + text + "' (want >= 1)";
        return false;
    }
    out = n;
    return true;
}

bool
parseTenantSlaArg(const std::string& text, TenantSlaArg& out,
                  std::string& error)
{
    const size_t colon = text.find(':');
    if (colon == std::string::npos || colon == 0) {
        error = "bad --tenant-sla '" + text +
                "' (want T:SPEC or '*:SPEC')";
        return false;
    }
    TenantSlaArg arg;
    if (!sim::serve::TenantSla::parse(text.substr(colon + 1), arg.sla)) {
        error = "bad SLA spec in '" + text +
                "' (want e.g. rmse<1e-6;cycles:p99<600)";
        return false;
    }
    const std::string who = text.substr(0, colon);
    if (who != "*") {
        uint64_t tenant = 0;
        if (!cli::parseU64(who, tenant)) {
            error = "bad tenant id '" + who + "'";
            return false;
        }
        arg.tenant = tenant;
    }
    out = arg;
    return true;
}

std::optional<Function>
parseFunction(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(Function::Softplus); ++i) {
        Function f = static_cast<Function>(i);
        if (functionName(f) == name)
            return f;
    }
    return std::nullopt;
}

std::string_view
cliMethodName(Method m)
{
    for (const auto& [name, method] : kMethods)
        if (method == m)
            return name;
    return "?";
}

std::optional<Method>
parseMethod(std::string_view name)
{
    for (const auto& [spelling, method] : kMethods)
        if (spelling == name)
            return method;
    return std::nullopt;
}

bool
applyRequestKey(std::string_view key, const std::string& value,
                TraceRequest& req, std::string& error)
{
    uint32_t n = 0;
    if (key == "function") {
        std::optional<Function> f = parseFunction(value);
        if (!f) {
            error = "unknown function '" + value + "'";
            return false;
        }
        req.function = *f;
    } else if (key == "method") {
        std::optional<Method> m = parseMethod(value);
        if (!m) {
            error = "unknown method '" + value + "'";
            return false;
        }
        req.spec.method = *m;
    } else if (key == "elements") {
        if (!cli::parseU32(value, n) || n == 0) {
            error = "bad elements '" + value + "'";
            return false;
        }
        req.elements = n;
    } else if (key == "log2-entries") {
        if (!cli::parseU32(value, req.spec.log2Entries)) {
            error = "bad log2-entries '" + value + "'";
            return false;
        }
    } else if (key == "iterations") {
        if (!cli::parseU32(value, req.spec.iterations)) {
            error = "bad iterations '" + value + "'";
            return false;
        }
    } else if (key == "interpolated") {
        if (!cli::parseU32(value, n) || n > 1) {
            error = "bad interpolated '" + value + "'";
            return false;
        }
        req.spec.interpolated = n != 0;
    } else if (key == "placement") {
        if (value == "wram") {
            req.spec.placement = Placement::Wram;
        } else if (value == "mram") {
            req.spec.placement = Placement::Mram;
        } else {
            error = "bad placement '" + value + "'";
            return false;
        }
    } else if (key == "tenant") {
        if (!cli::parseU64(value, req.tenant)) {
            error = "bad tenant '" + value + "'";
            return false;
        }
    } else {
        error = "unknown key '" + std::string(key) + "'";
        return false;
    }
    return true;
}

bool
parseTraceLine(const std::string& line, TraceRequest& req,
               std::string& error)
{
    std::istringstream words(line);
    std::string word;
    words >> word;
    if (word != "request") {
        error = "expected 'request', got '" + word + "'";
        return false;
    }
    bool haveFunction = false;
    while (words >> word) {
        size_t eq = word.find('=');
        if (eq == std::string::npos) {
            error = "expected key=value, got '" + word + "'";
            return false;
        }
        std::string_view key = std::string_view(word).substr(0, eq);
        if (!applyRequestKey(key, word.substr(eq + 1), req, error))
            return false;
        haveFunction = haveFunction || key == "function";
    }
    if (!haveFunction || req.elements == 0) {
        error = "request needs at least function= and elements=";
        return false;
    }
    return true;
}

bool
readTraceFile(const std::string& path, std::vector<TraceRequest>& out,
              std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read '" + path + "'";
        return false;
    }
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        TraceRequest req;
        std::string lineError;
        if (!parseTraceLine(line, req, lineError)) {
            error = path + ":" + std::to_string(lineNo) + ": " +
                    lineError;
            return false;
        }
        out.push_back(req);
    }
    if (out.empty()) {
        error = path + ": no requests";
        return false;
    }
    return true;
}

bool
readPlanFile(const std::string& path, sim::fault::FaultPlan& out,
             std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string parseError;
    std::optional<sim::fault::FaultPlan> plan =
        sim::fault::FaultPlan::parse(text.str(), &parseError);
    if (!plan) {
        error = path + ": " + parseError;
        return false;
    }
    out = std::move(*plan);
    return true;
}

std::vector<float>
traceInputs(std::span<const TraceRequest> trace, uint32_t seed)
{
    uint64_t total = 0;
    for (const TraceRequest& r : trace)
        total += r.elements;
    std::vector<float> inputs(total);
    float* in = inputs.data();
    uint32_t salt = 0;
    for (const TraceRequest& r : trace) {
        Domain dom = functionDomain(r.function);
        const float lo = static_cast<float>(dom.lo);
        const float hi = static_cast<float>(dom.hi);
        SplitMix64 rng(seed + salt++);
        for (uint32_t i = 0; i < r.elements; ++i)
            *in++ = rng.nextFloat(lo, hi);
    }
    return inputs;
}

ReplayReport
replayTrace(std::vector<TraceRequest> trace,
            std::span<const float> inputs, std::span<float> outputs,
            const ReplayOptions& opts)
{
    ReplayReport res;
    sim::PimSystem sys(opts.dpus);
    if (opts.simThreads)
        sys.setSimThreads(opts.simThreads);
    if (opts.plan)
        sys.armFaults(*opts.plan);
    EvaluatorCatalog catalog;
    catalog.setChunkElements(opts.chunk);

    sim::serve::BatchQueue queue;
    queue.setJournal(opts.journal);
    uint64_t off = 0;
    for (const TraceRequest& r : trace) {
        sim::serve::Request req;
        req.table = catalog.add(r.function, r.spec);
        req.input = inputs.data() + off;
        req.output = outputs.data() + off;
        req.elements = r.elements;
        req.tenant = r.tenant;
        queue.push(req);
        off += r.elements;
    }
    queue.close();
    // The queue holds every request now: free the trace.
    std::vector<TraceRequest>().swap(trace);

    std::optional<OnlineAutoTuner> tuner;
    if (opts.tuner) {
        tuner.emplace(catalog, *opts.tuner);
        for (const auto& [tenant, sla] : opts.tenantSlas)
            tuner->setTenantSla(tenant, sla);
    }

    sim::serve::PipelineOptions popts;
    popts.numTasklets = opts.tasklets;
    popts.perDpuElements = opts.perDpuElements;
    popts.journal = opts.journal;
    if (tuner)
        popts.autoTuner = &*tuner;
    if (opts.topology)
        popts.topology = &*opts.topology;
    sim::serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    try {
        res.report = pipeline.run(queue);
    } catch (const std::bad_alloc&) {
        res.error = "--per-dpu-elements " +
                    std::to_string(opts.perDpuElements) +
                    ": the per-DPU wave buffers do not fit in MRAM";
        return res;
    }
    res.healthyDpus = sys.healthyDpus();
    if (tuner) {
        res.streams = tuner->streamReports();
        res.decisions = tuner->decisions();
    }
    return res;
}

} // namespace transpim
} // namespace tpl
