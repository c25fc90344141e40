/**
 * @file
 * Request-trace and CLI grammar (see trace.h).
 */

#include "transpim/trace.h"

#include <array>
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "pimsim/cost_model.h"
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

/** std::stoull accepts a sign and leading whitespace (and wraps
 * "-1" to the maximum); an unsigned number starts with a digit. */
bool
startsWithDigit(const std::string& text)
{
    return !text.empty() &&
           std::isdigit(static_cast<unsigned char>(text[0]));
}

} // namespace

bool
parseU32(const std::string& text, uint32_t& out)
{
    uint64_t v = 0;
    if (!parseU64(text, v) || v > UINT32_MAX)
        return false;
    out = static_cast<uint32_t>(v);
    return true;
}

bool
parseU64(const std::string& text, uint64_t& out)
{
    if (!startsWithDigit(text))
        return false;
    try {
        size_t pos = 0;
        unsigned long long v = std::stoull(text, &pos, 0);
        if (pos != text.size())
            return false;
        out = v;
        return true;
    } catch (...) {
        return false;
    }
}

bool
parseTasklets(const std::string& text, uint32_t& out,
              std::string& error)
{
    const uint32_t maxTasklets = sim::CostModel{}.maxTasklets;
    uint32_t n = 0;
    if (!parseU32(text, n) || n < 1 || n > maxTasklets) {
        error = "bad --tasklets '" + text + "' (want 1.." +
                std::to_string(maxTasklets) + ")";
        return false;
    }
    out = n;
    return true;
}

bool
parseChunk(const std::string& text, uint32_t& out, std::string& error)
{
    uint32_t n = 0;
    if (!parseU32(text, n) || n < 1 || n > maxChunkElements) {
        error = "bad --chunk '" + text + "' (want 1.." +
                std::to_string(maxChunkElements) + ")";
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
        if (!parseU64(who, tenant)) {
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
        std::string key = word.substr(0, eq);
        std::string value = word.substr(eq + 1);
        uint32_t n = 0;
        if (key == "function") {
            std::optional<Function> f = parseFunction(value);
            if (!f) {
                error = "unknown function '" + value + "'";
                return false;
            }
            req.function = *f;
            haveFunction = true;
        } else if (key == "method") {
            std::optional<Method> m = parseMethod(value);
            if (!m) {
                error = "unknown method '" + value + "'";
                return false;
            }
            req.spec.method = *m;
        } else if (key == "elements") {
            if (!parseU32(value, n) || n == 0) {
                error = "bad elements '" + value + "'";
                return false;
            }
            req.elements = n;
        } else if (key == "log2-entries") {
            if (!parseU32(value, req.spec.log2Entries)) {
                error = "bad log2-entries '" + value + "'";
                return false;
            }
        } else if (key == "interpolated") {
            if (!parseU32(value, n) || n > 1) {
                error = "bad interpolated '" + value + "'";
                return false;
            }
            req.spec.interpolated = n != 0;
        } else if (key == "iterations") {
            if (!parseU32(value, req.spec.iterations)) {
                error = "bad iterations '" + value + "'";
                return false;
            }
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
            if (!parseU64(value, req.tenant)) {
                error = "bad tenant '" + value + "'";
                return false;
            }
        } else {
            error = "unknown key '" + key + "'";
            return false;
        }
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

} // namespace transpim
} // namespace tpl
