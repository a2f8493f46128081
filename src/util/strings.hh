/**
 * @file
 * Small string formatting helpers shared by the reporting code.
 */

#ifndef CELLBW_UTIL_STRINGS_HH
#define CELLBW_UTIL_STRINGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cellbw::util
{

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Split @p s on @p sep; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char sep);

/** Strip leading/trailing whitespace. */
std::string trim(const std::string &s);

/** Lower-case ASCII copy. */
std::string toLower(std::string s);

/**
 * Human-readable byte size: exact binary units when possible
 * ("128 B", "4 KiB", "32 MiB"), otherwise a raw byte count.
 */
std::string bytesToString(std::uint64_t bytes);

/**
 * Strict non-negative integer parse: rejects signs (no silent -1 ->
 * UINT64_MAX wrap), trailing garbage, and out-of-range values.
 * Surrounding whitespace is tolerated.  Throws std::invalid_argument /
 * std::out_of_range.
 */
std::uint64_t parseUint64(const std::string &s);

/**
 * Parse "128", "4K"/"4KiB", "2M", "1G" style sizes.  Throws on
 * garbage, negative values, and sizes that overflow 64 bits.
 */
std::uint64_t parseByteSize(const std::string &s);

/**
 * Locale-independent double parse.  std::from_chars always reads the
 * C grammar, whereas the C library's parsers follow LC_NUMERIC: under
 * a comma-decimal locale they read "9.87" as 9.  Leading whitespace is
 * skipped; a '+' sign, hex, and magnitudes outside double's range are
 * rejected.  @return the characters consumed (whitespace included), or
 * 0 when @p s does not start with a number.
 */
std::size_t parseDoublePrefix(const std::string &s, double &out);

/** parseDoublePrefix() over all of @p s: false unless only whitespace
 *  surrounds the number. */
bool parseDouble(const std::string &s, double &out);

} // namespace cellbw::util

#endif // CELLBW_UTIL_STRINGS_HH
