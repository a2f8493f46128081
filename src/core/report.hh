/**
 * @file
 * Shared reporting helpers for the bench binaries.
 */

#ifndef CELLBW_CORE_REPORT_HH
#define CELLBW_CORE_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cellbw::core
{

/** The paper's DMA element-size sweep: 128 B .. 16 KB, powers of two. */
std::vector<std::uint32_t> elemSweepSizes();

/** The paper's PPE access sweep: 1, 2, 4, 8, 16 bytes. */
std::vector<unsigned> ppeElemSizes();

/** "128B", "1KiB", ... */
std::string elemLabel(std::uint32_t bytes);

} // namespace cellbw::core

#endif // CELLBW_CORE_REPORT_HH
