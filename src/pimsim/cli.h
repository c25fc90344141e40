/**
 * @file
 * The command-line front end every tool shares: one flag reader and
 * the unsigned-number rules behind its values. It sits in tpl_pimsim
 * so the tools that link only the simulator (pimlint, pimkernels)
 * read flags as the others do; the request grammar built on it is
 * transpim/trace.h.
 *
 * Numbers use C notation (decimal, 0x hex, leading-0 octal) and must
 * be unsigned: a sign or leading whitespace is rejected (std::stoull
 * would accept both, and wrap "-1" to the maximum). A flag is an
 * exact word followed by a separate value (`--tasklets 16`): no
 * abbreviations and no `--flag=value`.
 */

#ifndef TPL_PIMSIM_CLI_H
#define TPL_PIMSIM_CLI_H

#include <cstdint>
#include <string>
#include <string_view>

namespace tpl {
namespace cli {

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

/**
 * Walks a tool's argv one argument at a time. `--help` and `-h`
 * print the usage and exit 0. Every rejection exits 2: a missing
 * value or a malformed number prints the usage, a value a parser
 * rejects prints "TOOL: <error>".
 */
class Flags
{
  public:
    Flags(std::string_view tool, int argc, char** argv,
          void (*usage)());

    /** Step to the next argument; false past the last. */
    bool next();

    /** The current argument. */
    const std::string& arg() const { return arg_; }

    /** Consume and return the argument after the current one. */
    std::string value();

    /** value() read by parseU32 / parseU64. */
    void u32(uint32_t& out);
    void u64(uint64_t& out);

    /** value() read by @p parse, e.g. parseTasklets. */
    template <typename T>
    void
    parse(T& out, bool (*parse)(const std::string&, T&, std::string&))
    {
        std::string error;
        if (!parse(value(), out, error))
            fail(error);
    }

    /** Print "TOOL: MESSAGE" and exit 2. */
    [[noreturn]] void fail(const std::string& message) const;

    /** Print "TOOL: unknown option 'ARG'" and the usage; exit 2. */
    [[noreturn]] void unknown() const;

  private:
    [[noreturn]] void usageError() const;

    std::string_view tool_;
    int argc_;
    char** argv_;
    void (*usage_)();
    int index_ = 0;
    std::string arg_;
};

} // namespace cli
} // namespace tpl

#endif // TPL_PIMSIM_CLI_H
