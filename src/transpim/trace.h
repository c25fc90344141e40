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
 * the CLI spellings of cliMethodName(). Numbers use C notation
 * (decimal, 0x hex, leading-0 octal) and must be unsigned: a sign
 * or leading whitespace is rejected. pimserve, pimtune, pimfault and
 * pimtrace all parse with these functions, so the tools accept the
 * same words and report the same errors. The shared options parsed
 * here are --tasklets N, --chunk N and --tenant-sla T:SPEC.
 */

#ifndef TPL_TRANSPIM_TRACE_H
#define TPL_TRANSPIM_TRACE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pimsim/serve/auto_tuner.h"
#include "transpim/evaluator.h"
#include "transpim/reference.h"

namespace tpl {
namespace transpim {

/** Parse an unsigned 32-bit number; false on a sign, whitespace,
 * trailing text, or overflow. */
bool parseU32(const std::string& text, uint32_t& out);

/** Parse an unsigned 64-bit number; same rules as parseU32. */
bool parseU64(const std::string& text, uint64_t& out);

/** Parse a --tasklets value: a number in [1, CostModel::maxTasklets].
 * On bad input returns false and sets @p error (e.g. "bad --tasklets
 * '0' (want 1..24)"). */
bool parseTasklets(const std::string& text, uint32_t& out,
                   std::string& error);

/** Parse a --chunk value: a number in [1, maxChunkElements], the
 * streaming kernel's evalBatch span. On bad input returns false and
 * sets @p error (e.g. "bad --chunk '0' (want 1..256)"). */
bool parseChunk(const std::string& text, uint32_t& out,
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

/** Parse `request key=value ...` into @p req; on bad input returns
 * false and sets @p error (e.g. "bad tenant '-1'"). */
bool parseTraceLine(const std::string& line, TraceRequest& req,
                    std::string& error);

/**
 * Read the trace file at @p path into @p out. On failure returns
 * false and sets @p error to "cannot read 'PATH'",
 * "PATH:LINE: <line error>", or "PATH: no requests".
 */
bool readTraceFile(const std::string& path,
                   std::vector<TraceRequest>& out, std::string& error);

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_TRACE_H
