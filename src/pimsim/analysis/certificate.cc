/**
 * @file
 * Cost-certificate JSON serialization.
 */

#include "pimsim/analysis/certificate.h"

#include <cctype>
#include <charconv>

#include "common/json.h"

namespace tpl {
namespace sim {
namespace check {

namespace {

std::string
u64(uint64_t v)
{
    return std::to_string(v);
}

std::string
pair(uint64_t lo, uint64_t hi)
{
    return "[" + u64(lo) + ", " + u64(hi) + "]";
}

/**
 * Decode the JSON string literal whose opening quote is at @p p into
 * @p out: every escape jsonEscape() emits (\", \\, \n, \t, \r,
 * \u00XX), plus any other backslash-escaped character taken as
 * itself. Returns the position just past the closing quote, or npos
 * for an unterminated literal or a \u escape beyond one byte.
 */
size_t
readStringToken(const std::string& json, size_t p, std::string& out)
{
    out.clear();
    for (++p; p < json.size(); ++p) {
        char c = json[p];
        if (c == '"')
            return p + 1;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++p >= json.size())
            break;
        switch (json[p]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (p + 4 >= json.size())
                return std::string::npos;
            const char* hex = json.data() + p + 1;
            unsigned code = 0;
            auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
            if (ec != std::errc() || end != hex + 4 || code > 0xff)
                return std::string::npos;
            out += static_cast<char>(code);
            p += 4;
            break;
          }
          default: out += json[p]; break;
        }
    }
    return std::string::npos;
}

/**
 * Position just past `"key":` at or after @p from, or npos. Scans by
 * lexing whole string literals (escape-aware) instead of raw
 * substring search, so key-like text *inside* a string value — a
 * kernel name or unbounded reason containing `\"bcet\"` — can never
 * match: only a complete string token whose unescaped content equals
 * @p key and whose next non-space character is `:` counts.
 */
size_t
afterKey(const std::string& json, const std::string& key,
         size_t from = 0)
{
    size_t p = from;
    std::string content;
    while (p < json.size()) {
        if (json[p] != '"') {
            ++p;
            continue;
        }
        p = readStringToken(json, p, content);
        if (p == std::string::npos)
            return std::string::npos; // unterminated string
        if (content != key)
            continue;
        size_t q = p;
        while (q < json.size() &&
               std::isspace(static_cast<unsigned char>(json[q])))
            ++q;
        if (q < json.size() && json[q] == ':') {
            ++q;
            while (q < json.size() &&
                   std::isspace(static_cast<unsigned char>(json[q])))
                ++q;
            return q;
        }
        // A string *value* equal to the key (followed by `,`/`}`):
        // not a key occurrence; keep scanning.
    }
    return std::string::npos;
}

bool
readU64At(const std::string& json, size_t p, uint64_t& out)
{
    if (p == std::string::npos || p >= json.size() ||
        !std::isdigit(static_cast<unsigned char>(json[p])))
        return false;
    out = 0;
    while (p < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[p]))) {
        out = out * 10 + static_cast<uint64_t>(json[p] - '0');
        ++p;
    }
    return true;
}

bool
readU64(const std::string& json, const std::string& key, uint64_t& out,
        size_t from = 0)
{
    return readU64At(json, afterKey(json, key, from), out);
}

bool
readBool(const std::string& json, const std::string& key, bool& out,
         size_t from = 0)
{
    size_t p = afterKey(json, key, from);
    if (p == std::string::npos)
        return false;
    if (json.compare(p, 4, "true") == 0) {
        out = true;
        return true;
    }
    if (json.compare(p, 5, "false") == 0) {
        out = false;
        return true;
    }
    return false;
}

bool
readString(const std::string& json, const std::string& key,
           std::string& out, size_t from = 0)
{
    size_t p = afterKey(json, key, from);
    if (p == std::string::npos || p >= json.size() || json[p] != '"')
        return false;
    return readStringToken(json, p, out) != std::string::npos;
}

bool
readPair(const std::string& json, const std::string& key,
         uint64_t& lo, uint64_t& hi, size_t from = 0)
{
    size_t p = afterKey(json, key, from);
    if (p == std::string::npos || p >= json.size() || json[p] != '[')
        return false;
    ++p;
    while (p < json.size() && std::isspace(
                                  static_cast<unsigned char>(json[p])))
        ++p;
    if (!readU64At(json, p, lo))
        return false;
    p = json.find(',', p);
    if (p == std::string::npos)
        return false;
    ++p;
    while (p < json.size() && std::isspace(
                                  static_cast<unsigned char>(json[p])))
        ++p;
    return readU64At(json, p, hi);
}

} // namespace

std::string
serializeCertificate(const KernelCertificate& cert)
{
    const CycleBound& b = cert.bound;
    std::string out = "{\n";
    out += "  \"kernel\": \"" + jsonEscape(cert.kernel) + "\",\n";
    out += "  \"bound\": {\n";
    out += "    \"bounded\": " +
           std::string(b.bounded ? "true" : "false") + ",\n";
    out += "    \"reason\": \"" + jsonEscape(b.reason) + "\",\n";
    out += "    \"tasklets\": " + u64(b.tasklets) + ",\n";
    out += "    \"bcet\": " + u64(b.bcet) + ",\n";
    out += "    \"wcet\": " + u64(b.wcet) + ",\n";
    out += "    \"usedAnnotation\": " +
           std::string(b.usedAnnotation ? "true" : "false") + ",\n";
    out += "    \"usedTripUpper\": " +
           std::string(b.usedTripUpper ? "true" : "false") + ",\n";
    out += "    \"perTasklet\": {\n";
    out += "      \"instructions\": " + pair(b.instrMin, b.instrMax) +
           ",\n";
    out += "      \"dmaStall\": " + pair(b.stallMin, b.stallMax) +
           ",\n";
    out += "      \"dmaEngine\": " + pair(b.engineMin, b.engineMax) +
           ",\n";
    out += "      \"dmaBytes\": " + pair(b.bytesMin, b.bytesMax) +
           "\n";
    out += "    },\n";
    out += "    \"classBounds\": {";
    for (int c = 0; c < numInstrClasses; ++c) {
        out += std::string(c ? ", " : "") + "\"" +
               instrClassName(static_cast<InstrClass>(c)) + "\": " +
               pair(b.classMin[c], b.classMax[c]);
    }
    out += "},\n";
    out += "    \"classWorst\": {";
    for (int c = 0; c < numInstrClasses; ++c) {
        out += std::string(c ? ", " : "") + "\"" +
               instrClassName(static_cast<InstrClass>(c)) + "\": " +
               u64(b.classWorst[c]);
    }
    out += "}\n";
    out += "  },\n";
    out += "  \"interleave\": {\n";
    out += "    \"checked\": " +
           std::string(cert.interleaveChecked ? "true" : "false") +
           ",\n";
    out += "    \"tasklets\": " + u64(cert.interleaveTasklets) + ",\n";
    out += "    \"verdict\": \"" +
           std::string(toString(cert.interleave)) + "\",\n";
    out += "    \"phases\": " + u64(cert.interleavePhases) + "\n";
    out += "  }\n";
    out += "}\n";
    return out;
}

bool
parseCertificate(const std::string& json, KernelCertificate& cert)
{
    if (!readString(json, "kernel", cert.kernel))
        return false;
    size_t boundAt = afterKey(json, "bound");
    if (boundAt == std::string::npos)
        return false;
    CycleBound& b = cert.bound;
    uint64_t v = 0;
    if (!readBool(json, "bounded", b.bounded, boundAt))
        return false;
    if (!readString(json, "reason", b.reason, boundAt))
        return false;
    if (!readU64(json, "tasklets", v, boundAt))
        return false;
    b.tasklets = static_cast<uint32_t>(v);
    if (!readU64(json, "bcet", b.bcet, boundAt) ||
        !readU64(json, "wcet", b.wcet, boundAt))
        return false;
    if (!readBool(json, "usedAnnotation", b.usedAnnotation, boundAt))
        return false;
    // Optional (absent from certificates serialized before the
    // trip-upper-bound distinction existed).
    if (!readBool(json, "usedTripUpper", b.usedTripUpper, boundAt))
        b.usedTripUpper = false;
    if (!readPair(json, "instructions", b.instrMin, b.instrMax,
                  boundAt) ||
        !readPair(json, "dmaStall", b.stallMin, b.stallMax, boundAt) ||
        !readPair(json, "dmaEngine", b.engineMin, b.engineMax,
                  boundAt) ||
        !readPair(json, "dmaBytes", b.bytesMin, b.bytesMax, boundAt))
        return false;
    size_t clsAt = afterKey(json, "classBounds", boundAt);
    size_t worstAt = afterKey(json, "classWorst", boundAt);
    if (clsAt == std::string::npos || worstAt == std::string::npos)
        return false;
    for (int c = 0; c < numInstrClasses; ++c) {
        const char* name = instrClassName(static_cast<InstrClass>(c));
        if (!readPair(json, name, b.classMin[c], b.classMax[c], clsAt))
            return false;
        if (!readU64(json, name, b.classWorst[c], worstAt))
            return false;
    }
    size_t ilAt = afterKey(json, "interleave");
    if (ilAt == std::string::npos)
        return false;
    if (!readBool(json, "checked", cert.interleaveChecked, ilAt))
        return false;
    if (!readU64(json, "tasklets", v, ilAt))
        return false;
    cert.interleaveTasklets = static_cast<uint32_t>(v);
    std::string verdict;
    if (!readString(json, "verdict", verdict, ilAt))
        return false;
    bool known = false;
    for (InterleaveVerdict iv :
         {InterleaveVerdict::RaceFree, InterleaveVerdict::Race,
          InterleaveVerdict::Deadlock,
          InterleaveVerdict::Inconclusive}) {
        if (verdict == toString(iv)) {
            cert.interleave = iv;
            known = true;
        }
    }
    if (!known)
        return false;
    if (!readU64(json, "phases", v, ilAt))
        return false;
    cert.interleavePhases = static_cast<uint32_t>(v);
    return true;
}

} // namespace check
} // namespace sim
} // namespace tpl
