/**
 * @file
 * Byte-buffer helpers.
 */

#ifndef CELLBW_UTIL_BYTES_HH
#define CELLBW_UTIL_BYTES_HH

#include <cstddef>
#include <cstring>

namespace cellbw::util
{

/** @return true iff the @p size bytes at @p p are all zero. */
inline bool
isAllZero(const void *p, std::size_t size)
{
    // Each byte equals its successor and the first is zero.
    const auto *b = static_cast<const unsigned char *>(p);
    return size == 0 || (b[0] == 0 && std::memcmp(b, b + 1, size - 1) == 0);
}

} // namespace cellbw::util

#endif // CELLBW_UTIL_BYTES_HH
