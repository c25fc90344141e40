/**
 * @file
 * The request-trace and CLI grammar shared by the tools.
 *
 * A trace is one request per line:
 *
 *   request function=sin method=llut elements=32768
 *   request function=exp method=llut elements=16384 log2-entries=12
 *   request function=sin method=cordic elements=4096 tenant=2
 *
 * Keys: function, method, elements, log2-entries, interpolated
 * (0|1), iterations, placement (wram|mram), tenant. function= and
 * elements= are required. Blank lines and '#' comments are skipped.
 *
 * Which table specs bind: a request whose configuration cannot bind
 * parses fine and is dropped by the serve path as infeasible
 * (ServeReport::infeasibleElements; pimserve exits 1), never aborts.
 *  - log2-entries N (the LUT methods): 1..31 asks for at most 2^N
 *    entries, and binds when the tables fit their placement on every
 *    core (WRAM or the MRAM bank). 0 and 32 or more drop: an L-LUT
 *    needs two entries, and 2^N must be a 32-bit count. Tables past
 *    the 32-bit address space drop before the host builds them;
 *    smaller ones that exceed the core are built on the host first.
 *  - iterations N (the CORDIC methods): any N binds while its angle
 *    table (4 bytes per iteration) fits; 2^30 or more drops before
 *    anything is built. cordic-fixed steps past shift 31 add the
 *    exact floor x / 2^i (0 or -1), so they serve but add no accuracy.
 *
 * Function names are functionName()'s spellings; method names are
 * the CLI spellings of cliMethodName(). Numbers follow pimsim/cli.h,
 * which also holds the flag reader and --tasklets N every tool uses.
 *
 * A flag and its trace key are one word: applyRequestKey() applies
 * both, so pimfault's --function, --method, --elements,
 * --log2-entries and --iterations, and pimtrace's same five plus
 * --placement, accept what a trace line accepts and report the same
 * errors (pimtrace's --no-interp is its spelling of interpolated=0).
 * The other shared options parsed here are --chunk N, --tenant-sla
 * T:SPEC and --plan PATH (readPlanFile).
 * replayTrace() serves a parsed trace for every replay tool.
 */

#ifndef TPL_TRANSPIM_TRACE_H
#define TPL_TRANSPIM_TRACE_H

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pimsim/fault/fault.h"
#include "pimsim/serve/auto_tuner.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/topology.h"
#include "transpim/auto_tuner.h"
#include "transpim/evaluator.h"
#include "transpim/reference.h"

namespace tpl {
namespace transpim {

/** Parse a --chunk value: a number in [1, maxChunkElements], the
 * streaming kernel's evalBatch span. On bad input returns false and
 * sets @p error (e.g. "bad --chunk '0' (want 1..256)"). */
bool parseChunk(const std::string& text, uint32_t& out,
                std::string& error);

/** Parse a --per-dpu-elements value: a wave slice of at least one
 * element. On bad input returns false and sets @p error ("bad
 * --per-dpu-elements '0' (want >= 1)"). ServePipeline clamps 0 to 1
 * for API callers; the tools refuse it. */
bool parsePerDpuElements(const std::string& text, uint32_t& out,
                         std::string& error);

/** A parsed --tenant-sla argument. */
struct TenantSlaArg
{
    /** The tenant the SLA governs; nullopt for '*' (the default SLA
     * of every tenant without its own). */
    std::optional<uint64_t> tenant;
    sim::serve::TenantSla sla;
};

/**
 * Parse a --tenant-sla value `T:SPEC` or `*:SPEC`: T is a tenant id
 * (parseU64) and SPEC a TenantSla::parse spec such as
 * `rmse<1e-6;cycles:p99<600`. On bad input returns false and sets
 * @p error (e.g. "bad tenant id '-1'").
 */
bool parseTenantSlaArg(const std::string& text, TenantSlaArg& out,
                       std::string& error);

/** The function whose functionName() is @p name, if any. */
std::optional<Function> parseFunction(std::string_view name);

/** CLI spelling of a method: "cordic", "cordic-fixed", "cordic-lut",
 * "mlut", "llut", "llut-fixed", "dlut", "dllut", "poly". */
std::string_view cliMethodName(Method m);

/** The method whose cliMethodName() is @p name, if any. */
std::optional<Method> parseMethod(std::string_view name);

/** One parsed trace line. */
struct TraceRequest
{
    Function function = Function::Sin;
    MethodSpec spec;
    uint32_t elements = 0;
    uint64_t tenant = 0;
};

/** Apply one request key (see Keys above) with its @p value to
 * @p req. On bad input returns false, leaves @p req as it was, and
 * sets @p error (e.g. "unknown method 'x'", "bad elements '0'"). */
bool applyRequestKey(std::string_view key, const std::string& value,
                     TraceRequest& req, std::string& error);

/** Parse `request key=value ...` into @p req, each pair through
 * applyRequestKey; on bad input returns false and sets @p error
 * (e.g. "bad tenant '-1'"). */
bool parseTraceLine(const std::string& line, TraceRequest& req,
                    std::string& error);

/**
 * Read the trace file at @p path into @p out. On failure returns
 * false and sets @p error to "cannot read 'PATH'",
 * "PATH:LINE: <line error>", or "PATH: no requests".
 */
bool readTraceFile(const std::string& path,
                   std::vector<TraceRequest>& out, std::string& error);

/** Read and parse the fault-plan file at @p path into @p out. On
 * failure returns false and sets @p error to "cannot read 'PATH'" or
 * "PATH: <FaultPlan::parse error>". */
bool readPlanFile(const std::string& path, sim::fault::FaultPlan& out,
                  std::string& error);

/**
 * The replay inputs of @p trace: request i draws its elements from
 * SplitMix64(uint32_t(seed + i)) uniformly over its function's
 * domain, and the requests' inputs lie back to back in trace order.
 */
std::vector<float> traceInputs(std::span<const TraceRequest> trace,
                               uint32_t seed);

/** What replayTrace() serves a trace on: the values the replay
 * tools take as flags. */
struct ReplayOptions
{
    uint32_t dpus = 64;
    /** Fleet topology of the dpus DPUs (per-rank scheduling). */
    std::optional<sim::Topology> topology;
    std::optional<sim::fault::FaultPlan> plan; ///< armed before serving
    uint32_t simThreads = 0; ///< 0 = the global default
    uint32_t tasklets = 16;
    uint32_t perDpuElements = 512; ///< per-DPU wave slice capacity
    uint32_t chunk = 32;           ///< serve-kernel chunk elements
    /** Journal the queue and pipeline stamp; kept alive by the caller. */
    obs::Journal* journal = nullptr;
    /** Route waves through an OnlineAutoTuner, when set, with
     * tenantSlas overriding its defaultSla. */
    std::optional<AutoTunerOptions> tuner;
    std::map<uint64_t, sim::serve::TenantSla> tenantSlas;
};

/** Outcome of one replayTrace(). */
struct ReplayReport
{
    /** Empty when the trace ran; else nothing was served and this
     * says why ("--per-dpu-elements N: the per-DPU wave buffers do
     * not fit in MRAM"). */
    std::string error;
    sim::serve::ServeReport report;
    uint32_t healthyDpus = 0; ///< cores not masked after the run
    std::vector<StreamReport> streams; ///< the tuner's, if any
    std::vector<sim::serve::TuneDecision> decisions;
};

/**
 * Serve @p trace once on a fresh system: build the PimSystem, the
 * EvaluatorCatalog, the OnlineAutoTuner (when opts.tuner is set), the
 * BatchQueue and the ServePipeline, push one request per entry (its
 * table catalog.add(function, spec), its input and output consecutive
 * slices of @p inputs and @p outputs as traceInputs() lays them out),
 * free @p trace, and run the pipeline. The one host sequence behind
 * pimserve, pimtune's three replays and runBatchedThroughput.
 */
ReplayReport replayTrace(std::vector<TraceRequest> trace,
                         std::span<const float> inputs,
                         std::span<float> outputs,
                         const ReplayOptions& opts);

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_TRACE_H
