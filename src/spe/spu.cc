#include "spe/spu.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace cellbw::spe
{

Spu::Spu(std::string name, sim::EventQueue &eq, const SpuParams &params,
         LocalStore &ls)
    : sim::SimObject(std::move(name), eq), params_(params), ls_(ls)
{
}

unsigned
Spu::elemCost(unsigned elemSize, bool isStore) const
{
    if (elemSize != 1 && elemSize != 2 && elemSize != 4 && elemSize != 8 &&
        elemSize != 16) {
        sim::fatal("%s: element size %u not in {1,2,4,8,16}",
                   name().c_str(), elemSize);
    }
    if (isStore) {
        unsigned c = params_.store16Cycles;
        if (elemSize < 16)
            c += params_.subwordInsertCycles;
        return c;
    }
    unsigned c = params_.load16Cycles;
    if (elemSize < 16)
        c += params_.subwordExtractCycles;
    return c;
}

sim::Task
Spu::streamKernel(LsAddr src, LsAddr dst, std::uint32_t bytes,
                  unsigned elemSize, bool doLoad, bool doStore)
{
    unsigned cost = 0;
    if (doLoad)
        cost += elemCost(elemSize, false);
    if (doStore)
        cost += elemCost(elemSize, true);

    Tick t0 = curTick();
    std::uint32_t off = 0;
    while (off < bytes) {
        std::uint32_t b = std::min(params_.batchBytes, bytes - off);
        std::uint64_t elems = std::max<std::uint64_t>(1, b / elemSize);

        // Every element touches a full quadword on the LS port; a
        // sub-quadword store additionally reads the line it merges into.
        std::uint64_t traffic = 0;
        if (doLoad)
            traffic += elems * 16;
        if (doStore)
            traffic += elems * (elemSize < 16 ? 32 : 16);

        Tick issue_done = curTick() + elems * cost;
        Tick port_done =
            ls_.reservePort(static_cast<std::uint32_t>(traffic));
        co_await sim::WaitUntil{eventQueue(),
                                std::max(issue_done, port_done)};
        // Move the bytes (only meaningful for copy).
        if (doLoad && doStore && src != dst) {
            std::vector<std::uint8_t> buf(b);
            ls_.read(src + off, buf.data(), b);
            ls_.write(dst + off, buf.data(), b);
        }
        off += b;
    }
    busyTicks_ += curTick() - t0;
}

sim::Task
Spu::streamLoad(LsAddr lsa, std::uint32_t bytes, unsigned elemSize)
{
    return streamKernel(lsa, lsa, bytes, elemSize, true, false);
}

sim::Task
Spu::streamStore(LsAddr lsa, std::uint32_t bytes, unsigned elemSize)
{
    return streamKernel(lsa, lsa, bytes, elemSize, false, true);
}

sim::Task
Spu::streamCopy(LsAddr src, LsAddr dst, std::uint32_t bytes,
                unsigned elemSize)
{
    return streamKernel(src, dst, bytes, elemSize, true, true);
}

} // namespace cellbw::spe
