/**
 * @file
 * The architectural peak-bandwidth table of Sections 1 and 3, printed
 * next to what the simulated machine actually sustains — the paper's
 * whole point in one table.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Table 1 (implicit)", "peak vs sustained for every path");

    stats::Table table({"path", "peak GB/s", "sustained GB/s",
                        "efficiency"});
    auto add = [&](const char *path, double peak, double meas) {
        table.addRow({path, stats::Table::num(peak, 1),
                      stats::Table::num(meas),
                      util::format("%.0f%%", 100.0 * meas / peak)});
    };

    // SPU <-> LS, 16 B loads.
    {
        core::SpuLsConfig lc;
        lc.elemSize = 16;
        lc.totalBytes = b.bytesPerSpe;
        core::RepeatSpec once{1, b.repeat.seed};
        auto d = core::repeatRuns(b.cfg, once, [&](cell::CellSystem &s) {
            return core::runSpuLs(s, lc);
        }, b.pool);
        add("SPU <-> LS (16B load)", b.cfg.lsPeakGBps(), d.mean());
    }
    // PPE -> L1, 8 B loads.
    {
        auto pc = core::ppeL1Config(1, 8, ppe::MemOp::Load);
        pc.totalBytes = b.bytesPerSpe;
        core::RepeatSpec once{1, b.repeat.seed};
        auto d = core::repeatRuns(b.cfg, once, [&](cell::CellSystem &s) {
            return core::runPpeStream(s, pc);
        }, b.pool);
        add("PPU <- L1 (8B load)", 16.0 * b.cfg.clock.cpuHz / 1e9,
            d.mean());
    }
    // PPE -> memory, 16 B loads.
    {
        auto pc = core::ppeMemConfig(1, 16, ppe::MemOp::Load);
        pc.totalBytes = b.bytesPerSpe;
        core::RepeatSpec once{1, b.repeat.seed};
        auto d = core::repeatRuns(b.cfg, once, [&](cell::CellSystem &s) {
            return core::runPpeStream(s, pc);
        }, b.pool);
        add("PPU <- memory (16B load)", b.cfg.rampPeakGBps(), d.mean());
    }
    // 1 SPE GET from memory.
    {
        core::SpeMemConfig mc;
        mc.numSpes = 1;
        mc.bytesPerSpe = b.bytesPerSpe;
        auto d = core::repeatRuns(b.cfg, b.repeat,
                                  [&](cell::CellSystem &s) {
            return core::runSpeMem(s, mc);
        }, b.pool);
        add("1 SPE GET <- memory", b.cfg.rampPeakGBps(), d.mean());
    }
    // 4 SPEs GET from memory (both banks).
    {
        core::SpeMemConfig mc;
        mc.numSpes = 4;
        mc.bytesPerSpe = b.bytesPerSpe;
        auto d = core::repeatRuns(b.cfg, b.repeat,
                                  [&](cell::CellSystem &s) {
            return core::runSpeMem(s, mc);
        }, b.pool);
        add("4 SPEs GET <- memory (MIC+IOIF)",
            b.cfg.rampPeakGBps() + 7.0, d.mean());
    }
    // SPE pair GET+PUT.
    {
        core::SpeSpeConfig sc;
        sc.numSpes = 2;
        sc.elemBytes = 4096;
        sc.bytesPerStream = b.bytesPerSpe;
        auto d = core::repeatRuns(b.cfg, b.repeat,
                                  [&](cell::CellSystem &s) {
            return core::runSpeSpe(s, sc);
        }, b.pool);
        add("SPE pair GET+PUT (4KiB)", b.cfg.pairPeakGBps(), d.mean());
    }
    // 8-SPE cycle.
    {
        core::SpeSpeConfig sc;
        sc.mode = core::SpeSpeMode::Cycle;
        sc.numSpes = 8;
        sc.elemBytes = 4096;
        sc.bytesPerStream = b.bytesPerSpe;
        auto d = core::repeatRuns(b.cfg, b.repeat,
                                  [&](cell::CellSystem &s) {
            return core::runSpeSpe(s, sc);
        }, b.pool);
        add("8-SPE cycle GET+PUT (4KiB)", 8 * b.cfg.rampPeakGBps(),
            d.mean());
    }

    b.emit(table);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(tab01_peaks, "Tab. 1",
                           "architectural peaks vs sustained bandwidth",
                           run)
