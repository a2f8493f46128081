#include "core/report.hh"

#include "util/strings.hh"

namespace cellbw::core
{

std::vector<std::uint32_t>
elemSweepSizes()
{
    std::vector<std::uint32_t> v;
    for (std::uint32_t s = 128; s <= 16 * 1024; s *= 2)
        v.push_back(s);
    return v;
}

std::vector<unsigned>
ppeElemSizes()
{
    return {1, 2, 4, 8, 16};
}

std::string
elemLabel(std::uint32_t bytes)
{
    if (bytes >= 1024 && bytes % 1024 == 0)
        return util::format("%uKiB", bytes / 1024);
    return util::format("%uB", bytes);
}

} // namespace cellbw::core
