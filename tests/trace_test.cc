/**
 * @file
 * Trace/CLI grammar tests (transpim/trace.h): every request key,
 * every error path with its exact message, comment and blank-line
 * skipping, the path:line: error prefix, unsigned-number rules, and
 * name round-trips for every function and method.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "pimsim/cli.h"
#include "transpim/trace.h"

using namespace tpl::cli;
using namespace tpl::transpim;

namespace {

/** Parse @p line expecting failure; returns the error message. */
std::string
lineError(const std::string& line)
{
    TraceRequest req;
    std::string error;
    EXPECT_FALSE(parseTraceLine(line, req, error)) << line;
    return error;
}

/** A trace file under the test's temp directory, removed on scope
 * exit. */
struct TempTrace
{
    std::string path;

    explicit TempTrace(const std::string& text)
    {
        const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "trace_test_" + info->name() +
               ".trace";
        std::ofstream(path) << text;
    }
    ~TempTrace() { std::remove(path.c_str()); }
};

} // namespace

// ---------------------------------------------------------------------
// Numbers.

TEST(TraceGrammar, UnsignedNumbersInCNotation)
{
    uint32_t u32 = 0;
    EXPECT_TRUE(parseU32("42", u32));
    EXPECT_EQ(u32, 42u);
    EXPECT_TRUE(parseU32("0x10", u32));
    EXPECT_EQ(u32, 16u);
    EXPECT_TRUE(parseU32("010", u32)); // octal, like std::stoul base 0
    EXPECT_EQ(u32, 8u);
    EXPECT_TRUE(parseU32("4294967295", u32));
    EXPECT_EQ(u32, 4294967295u);
    EXPECT_FALSE(parseU32("4294967296", u32));

    uint64_t u64 = 0;
    EXPECT_TRUE(parseU64("18446744073709551615", u64));
    EXPECT_EQ(u64, UINT64_MAX);
    EXPECT_FALSE(parseU64("18446744073709551616", u64));
}

TEST(TraceGrammar, RejectsSignsWhitespaceAndJunk)
{
    for (const char* text :
         {"-1", "+1", " 1", "\t1", "-0", "", "1x", "1 ", "x",
          "-18446744073709551615"}) {
        uint32_t u32 = 7;
        uint64_t u64 = 7;
        EXPECT_FALSE(parseU32(text, u32)) << "'" << text << "'";
        EXPECT_FALSE(parseU64(text, u64)) << "'" << text << "'";
        EXPECT_EQ(u32, 7u);
        EXPECT_EQ(u64, 7u);
    }
}

TEST(TraceGrammar, TaskletsWithinHardwareRange)
{
    uint32_t n = 7;
    std::string error;
    EXPECT_TRUE(parseTasklets("1", n, error));
    EXPECT_EQ(n, 1u);
    EXPECT_TRUE(parseTasklets("24", n, error));
    EXPECT_EQ(n, 24u);
    EXPECT_TRUE(error.empty());
    for (const char* text : {"0", "25", "100", "-1", "x", ""}) {
        n = 7;
        EXPECT_FALSE(parseTasklets(text, n, error)) << text;
        EXPECT_EQ(n, 7u);
        EXPECT_EQ(error,
                  "bad --tasklets '" + std::string(text) +
                      "' (want 1..24)");
    }
}

TEST(TraceGrammar, TenantSlaArgument)
{
    TenantSlaArg arg;
    std::string error;
    ASSERT_TRUE(parseTenantSlaArg("*:rmse<1e-3", arg, error)) << error;
    EXPECT_FALSE(arg.tenant.has_value()); // '*' = the default SLA
    EXPECT_EQ(arg.sla.maxRmse, 1e-3);
    ASSERT_TRUE(
        parseTenantSlaArg("2:rmse<1e-6;cycles:p99<600", arg, error))
        << error;
    ASSERT_TRUE(arg.tenant.has_value());
    EXPECT_EQ(*arg.tenant, 2u);
    EXPECT_EQ(arg.sla.maxRmse, 1e-6);
    EXPECT_EQ(arg.sla.maxCyclesPerElement, 600.0);
    EXPECT_EQ(arg.sla.cyclesPercentile, 99.0);

    const struct
    {
        const char* text;
        const char* error;
    } bad[] = {
        {":x", "bad --tenant-sla ':x' (want T:SPEC or '*:SPEC')"},
        {"x", "bad --tenant-sla 'x' (want T:SPEC or '*:SPEC')"},
        {"-1:rmse<1", "bad tenant id '-1'"},
        {"2:fast", "bad SLA spec in '2:fast' (want e.g. "
                   "rmse<1e-6;cycles:p99<600)"},
    };
    for (const auto& b : bad) {
        TenantSlaArg untouched;
        untouched.tenant = 9;
        EXPECT_FALSE(parseTenantSlaArg(b.text, untouched, error))
            << b.text;
        EXPECT_EQ(error, b.error);
        EXPECT_EQ(untouched.tenant, 9u) << b.text;
    }
}

// ---------------------------------------------------------------------
// Names.

TEST(TraceGrammar, EveryFunctionNameRoundTrips)
{
    int count = 0;
    for (int i = 0; i <= static_cast<int>(Function::Softplus); ++i) {
        Function f = static_cast<Function>(i);
        std::optional<Function> back = parseFunction(functionName(f));
        ASSERT_TRUE(back.has_value()) << functionName(f);
        EXPECT_EQ(*back, f);
        ++count;
    }
    EXPECT_EQ(count, 23);
    EXPECT_FALSE(parseFunction("SIN").has_value());
    EXPECT_FALSE(parseFunction("?").has_value());
    EXPECT_FALSE(parseFunction("").has_value());
}

TEST(TraceGrammar, EveryCliMethodNameRoundTrips)
{
    const std::vector<std::pair<std::string, Method>> expected = {
        {"cordic", Method::Cordic},
        {"cordic-fixed", Method::CordicFixed},
        {"cordic-lut", Method::CordicLut},
        {"mlut", Method::MLut},
        {"llut", Method::LLut},
        {"llut-fixed", Method::LLutFixed},
        {"dlut", Method::DLut},
        {"dllut", Method::DlLut},
        {"poly", Method::Poly},
    };
    for (const auto& [name, method] : expected) {
        EXPECT_EQ(cliMethodName(method), name);
        std::optional<Method> back = parseMethod(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, method);
    }
    // The report names ("L-LUT", ...) are not CLI spellings.
    EXPECT_FALSE(parseMethod(methodName(Method::LLut)).has_value());
}

// ---------------------------------------------------------------------
// Request lines.

TEST(TraceGrammar, ParsesEveryKey)
{
    TraceRequest req;
    std::string error;
    ASSERT_TRUE(parseTraceLine(
        "request function=exp method=cordic-lut elements=0x100 "
        "log2-entries=10 interpolated=0 iterations=20 placement=mram "
        "tenant=18446744073709551615",
        req, error))
        << error;
    EXPECT_EQ(req.function, Function::Exp);
    EXPECT_EQ(req.spec.method, Method::CordicLut);
    EXPECT_EQ(req.elements, 256u);
    EXPECT_EQ(req.spec.log2Entries, 10u);
    EXPECT_FALSE(req.spec.interpolated);
    EXPECT_EQ(req.spec.iterations, 20u);
    EXPECT_EQ(req.spec.placement, Placement::Mram);
    EXPECT_EQ(req.tenant, UINT64_MAX);

    TraceRequest other;
    ASSERT_TRUE(parseTraceLine(
        "request  elements=8\tfunction=sin interpolated=1 "
        "placement=wram",
        other, error))
        << error;
    EXPECT_EQ(other.function, Function::Sin);
    EXPECT_EQ(other.elements, 8u);
    EXPECT_TRUE(other.spec.interpolated);
    EXPECT_EQ(other.spec.placement, Placement::Wram);
    EXPECT_EQ(other.tenant, 0u);
    // Unset keys keep MethodSpec's defaults.
    EXPECT_EQ(other.spec.method, MethodSpec{}.method);
    EXPECT_EQ(other.spec.log2Entries, MethodSpec{}.log2Entries);
}

TEST(TraceGrammar, EveryErrorPathHasItsMessage)
{
    EXPECT_EQ(lineError("requests function=sin elements=8"),
              "expected 'request', got 'requests'");
    EXPECT_EQ(lineError("request function=sin elements 8"),
              "expected key=value, got 'elements'");
    EXPECT_EQ(lineError("request function=sin elements=8 colour=red"),
              "unknown key 'colour'");
    EXPECT_EQ(lineError("request function=sine elements=8"),
              "unknown function 'sine'");
    EXPECT_EQ(lineError("request function=sin method=lut elements=8"),
              "unknown method 'lut'");
    EXPECT_EQ(lineError("request function=sin elements=0"),
              "bad elements '0'");
    EXPECT_EQ(lineError("request function=sin elements=-8"),
              "bad elements '-8'");
    EXPECT_EQ(lineError("request function=sin elements=8 "
                        "log2-entries=x"),
              "bad log2-entries 'x'");
    EXPECT_EQ(lineError("request function=sin elements=8 "
                        "interpolated=2"),
              "bad interpolated '2'");
    EXPECT_EQ(lineError("request function=sin elements=8 "
                        "iterations=+3"),
              "bad iterations '+3'");
    EXPECT_EQ(lineError("request function=sin elements=8 "
                        "placement=dram"),
              "bad placement 'dram'");
    EXPECT_EQ(lineError("request function=sin elements=8 tenant=-1"),
              "bad tenant '-1'");
    EXPECT_EQ(lineError("request elements=8"),
              "request needs at least function= and elements=");
    EXPECT_EQ(lineError("request function=sin"),
              "request needs at least function= and elements=");
}

// ---------------------------------------------------------------------
// Trace files.

TEST(TraceGrammar, FileSkipsCommentsAndBlankLines)
{
    TempTrace file("# header comment\n"
                   "\n"
                   "   \t\r\n"
                   "request function=sin elements=8 # trailing\n"
                   "  # indented comment\n"
                   "request function=cos method=poly elements=16 "
                   "tenant=3\r\n");
    std::vector<TraceRequest> trace;
    std::string error;
    ASSERT_TRUE(readTraceFile(file.path, trace, error)) << error;
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].function, Function::Sin);
    EXPECT_EQ(trace[0].elements, 8u);
    EXPECT_EQ(trace[1].function, Function::Cos);
    EXPECT_EQ(trace[1].spec.method, Method::Poly);
    EXPECT_EQ(trace[1].tenant, 3u);
}

TEST(TraceGrammar, FileErrorsCarryPathAndLine)
{
    TempTrace file("# comment\n"
                   "request function=sin elements=8\n"
                   "\n"
                   "request function=sin elements=8 tenant=-1\n");
    std::vector<TraceRequest> trace;
    std::string error;
    EXPECT_FALSE(readTraceFile(file.path, trace, error));
    EXPECT_EQ(error, file.path + ":4: bad tenant '-1'");
}

TEST(TraceGrammar, EmptyAndMissingFilesAreErrors)
{
    TempTrace file("# only comments\n\n");
    std::vector<TraceRequest> trace;
    std::string error;
    EXPECT_FALSE(readTraceFile(file.path, trace, error));
    EXPECT_EQ(error, file.path + ": no requests");

    const std::string missing = file.path + ".missing";
    EXPECT_FALSE(readTraceFile(missing, trace, error));
    EXPECT_EQ(error, "cannot read '" + missing + "'");
}
