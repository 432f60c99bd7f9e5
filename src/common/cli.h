/**
 * @file
 * Checked parsing of numeric command-line values, shared by every
 * binary. strtoul and friends skip leading blanks, accept a sign
 * (wrapping "-1" to the type's maximum), stop silently at trailing
 * junk and leave the caller to narrow the result; parseUnsigned
 * accepts exactly what a user means by a count and range-checks it
 * against the field it fills.
 */

#ifndef MGX_COMMON_CLI_H
#define MGX_COMMON_CLI_H

#include <optional>
#include <string_view>

#include "types.h"

namespace mgx {

/** Largest thread or worker count a command-line option accepts. */
constexpr u64 kMaxThreadCount = 1024;

/**
 * @p text as a decimal integer in [@p min, @p max]: one or more ASCII
 * digits and nothing else (no sign, blank or suffix), without
 * overflow. std::nullopt otherwise.
 */
std::optional<u64> parseUnsigned(std::string_view text, u64 min, u64 max);

/**
 * parseUnsigned for the value of command-line option @p option; on
 * failure prints "<prog>: <option> needs a number in [min, max], got
 * '<text>'" to stderr before returning std::nullopt.
 */
std::optional<u64> parseUnsignedOption(const char *prog,
                                       std::string_view option,
                                       const char *text, u64 min,
                                       u64 max);

} // namespace mgx

#endif // MGX_COMMON_CLI_H
