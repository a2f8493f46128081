/**
 * @file
 * Quickstart: boot a simulated Cell blade, run one DMA from an SPE, and
 * measure a few sustained bandwidths the way the paper does.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <vector>

#include "cell/cell_system.hh"
#include "core/experiments.hh"
#include "sim/task.hh"
#include "util/strings.hh"

using namespace cellbw;

namespace
{

/**
 * A minimal SPU program, written like Cell SDK code: GET a buffer from
 * main memory into the local store in 16 KiB elements, then wait for
 * the tag group.
 */
sim::Task
helloDma(cell::CellSystem &sys, unsigned speIdx, EffAddr src,
         std::uint32_t bytes)
{
    auto &spe = sys.spe(speIdx);
    LsAddr buf = spe.lsAlloc(bytes);
    for (std::uint32_t off = 0; off < bytes; off += 16 * 1024) {
        co_await spe.mfc().queueSpace();
        spe.mfc().get(buf + off, src + off, 16 * 1024, /*tag=*/0);
    }
    co_await spe.mfc().tagWait(1u << 0);
}

} // namespace

int
main()
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, /*placementSeed=*/1);

    std::printf("cellbw quickstart: simulated Cell Broadband Engine\n");
    std::printf("  CPU %.1f GHz, EIB ramp peak %.1f GB/s, LS peak %.1f "
                "GB/s\n",
                cfg.clock.cpuHz / 1e9, cfg.rampPeakGBps(),
                cfg.lsPeakGBps());
    std::printf("  SPE placement (logical->physical):");
    for (unsigned i = 0; i < sys.numSpes(); ++i)
        std::printf(" %u->%u", i, sys.physicalOf(i));
    std::printf("\n\n");

    // --- One hand-rolled DMA program. -------------------------------
    constexpr std::uint32_t bytes = 128 * 1024;
    EffAddr src = sys.malloc(bytes);
    std::vector<std::uint8_t> pattern(bytes, 0xAB);
    sys.memory().store().write(src, pattern.data(), bytes);

    Tick t0 = sys.now();
    sys.launch(helloDma(sys, 0, src, bytes));
    sys.run();

    double secs = cfg.clock.seconds(sys.now() - t0);
    std::uint8_t first = 0;
    sys.spe(0).ls().read(0, &first, 1);
    std::printf("GET of %s from main memory on SPE0:\n",
                util::bytesToString(bytes).c_str());
    std::printf("  %.2f us simulated, %.2f GB/s\n", secs * 1e6,
                bytes / secs / 1e9);
    std::printf("  first byte landed in LS: 0x%02X (expected 0xAB)\n\n",
                first);

    // --- The canned experiments. -------------------------------------
    {
        cell::CellSystem s2(cfg, 2);
        core::SpeMemConfig mc;
        mc.numSpes = 2;
        mc.op = core::DmaOp::Get;
        double bw = core::runSpeMem(s2, mc);
        std::printf("2 SPEs streaming GETs from memory: %.2f GB/s\n", bw);
    }
    {
        cell::CellSystem s3(cfg, 3);
        core::SpeSpeConfig sc;
        sc.numSpes = 2;
        sc.elemBytes = 4096;
        double bw = core::runSpeSpe(s3, sc);
        std::printf("SPE pair, concurrent GET+PUT, 4 KiB elements: "
                    "%.2f GB/s (peak %.1f)\n",
                    bw, cfg.pairPeakGBps());
    }
    return 0;
}
