/**
 * @file
 * Interactive-style walkthrough of the paper's DMA programming rules:
 * starting from a naive SPE-to-SPE transfer loop, apply one rule at a
 * time and watch the bandwidth recover.
 *
 *   naive        : 512 B DMA-elem chunks, wait after every request
 *   + delay sync : same chunks, tag wait only at the end
 *   + big elems  : 4 KiB DMA-elem chunks, delayed sync
 *   + DMA lists  : back to 512 B chunks but as one list command per
 *                  32 KiB — small chunks with peak bandwidth
 */

#include <cstdio>

#include "cell/cell_system.hh"
#include "core/dma_workloads.hh"
#include "util/strings.hh"

using namespace cellbw;

namespace
{

struct Step
{
    const char *name;
    std::uint32_t elemBytes;
    bool useList;
    unsigned syncEvery;
};

double
runStep(const Step &step, std::uint64_t bytes, std::uint64_t seed)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, seed);
    constexpr std::uint32_t region = 64 * 1024;

    // Identical LS layout on both SPEs (initiator and passive target).
    LsAddr src_base = 0, rx_base = 0, land_base = 0;
    for (unsigned i = 0; i < 2; ++i) {
        src_base = sys.spe(i).lsAlloc(region);
        rx_base = sys.spe(i).lsAlloc(region);
        land_base = sys.spe(i).lsAlloc(region);
    }

    core::DuplexSpec d;
    d.speIndex = 0;
    d.getBase = sys.lsEa(1, src_base);
    d.putBase = sys.lsEa(1, rx_base);
    d.bytesPerDir = bytes;
    d.elemBytes = step.elemBytes;
    d.useList = step.useList;
    d.syncEvery = step.syncEvery;
    d.getLsBase = land_base;
    d.putLsBase = src_base;
    d.lsBytes = region;
    d.eaWindow = region;

    Tick t0 = sys.now();
    sys.launch(core::dmaDuplexStream(sys, d));
    sys.run();
    return cfg.clock.bandwidthGBps(2 * bytes, sys.now() - t0);
}

} // namespace

int
main()
{
    const std::uint64_t bytes = 8 * util::MiB;
    const Step steps[] = {
        {"naive (512B elems, sync each)", 512, false, 1},
        {"+ delayed synchronization", 512, false, 0},
        {"+ 4KiB elements", 4096, false, 0},
        {"+ DMA lists (512B elements)", 512, true, 0},
    };

    std::printf("Tuning an SPE pair transfer, %s per direction "
                "(peak 33.6 GB/s):\n\n",
                util::bytesToString(bytes).c_str());
    double naive = 0.0;
    for (const auto &s : steps) {
        double bw = runStep(s, bytes, 42);
        if (naive == 0.0)
            naive = bw;
        std::printf("  %-34s %6.2f GB/s  (%5.2fx naive, %3.0f%% of "
                    "peak)\n",
                    s.name, bw, bw / naive, 100.0 * bw / 33.6);
    }
    return 0;
}
