/**
 * @file
 * Small string helpers shared across the library.
 */

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace accel {

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view s);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/** True when @p s begins with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True when @p s ends with @p suffix. */
bool endsWith(std::string_view s, std::string_view suffix);

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/**
 * Parse a double accepting scientific notation; the whole string must be
 * consumed.
 *
 * @throws FatalError on malformed input.
 */
double parseDouble(std::string_view s);

/**
 * Parse a non-negative integer, accepting scientific/suffix forms that
 * represent exact integers (e.g. "2.5e9", "4096").
 *
 * @throws FatalError on malformed or negative input.
 */
std::uint64_t parseCount(std::string_view s);

} // namespace accel
