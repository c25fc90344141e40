/**
 * @file
 * JSON string escaping shared by every writer that emits JSON text
 * (the request journal, the Chrome trace, cost certificates, pimlint).
 */

#ifndef TPL_COMMON_JSON_H
#define TPL_COMMON_JSON_H

#include <string>
#include <string_view>

namespace tpl {

/**
 * Escape @p s for embedding in a JSON string literal: `"` and `\` are
 * backslash-escaped, newline, tab and carriage return become \n, \t
 * and \r, and every other byte below 0x20 becomes \u00XX. All other
 * bytes pass through unchanged.
 */
std::string jsonEscape(std::string_view s);

} // namespace tpl

#endif // TPL_COMMON_JSON_H
