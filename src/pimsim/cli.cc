/**
 * @file
 * The shared command-line front end (see cli.h).
 */

#include "pimsim/cli.h"

#include <cctype>
#include <cstdlib>
#include <iostream>

#include "pimsim/cost_model.h"

namespace tpl {
namespace cli {

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
    // An unsigned number starts with a digit: std::stoull would
    // accept a sign and leading whitespace.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
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

Flags::Flags(std::string_view tool, int argc, char** argv,
             void (*usage)())
    : tool_(tool), argc_(argc), argv_(argv), usage_(usage)
{
}

bool
Flags::next()
{
    if (index_ + 1 >= argc_)
        return false;
    arg_ = argv_[++index_];
    if (arg_ == "--help" || arg_ == "-h") {
        usage_();
        std::exit(0);
    }
    return true;
}

std::string
Flags::value()
{
    if (index_ + 1 >= argc_)
        usageError();
    return argv_[++index_];
}

void
Flags::u32(uint32_t& out)
{
    if (!parseU32(value(), out))
        usageError();
}

void
Flags::u64(uint64_t& out)
{
    if (!parseU64(value(), out))
        usageError();
}

void
Flags::fail(const std::string& message) const
{
    std::cerr << tool_ << ": " << message << "\n";
    std::exit(2);
}

void
Flags::unknown() const
{
    std::cerr << tool_ << ": unknown option '" << arg_ << "'\n";
    usageError();
}

void
Flags::usageError() const
{
    usage_();
    std::exit(2);
}

} // namespace cli
} // namespace tpl
