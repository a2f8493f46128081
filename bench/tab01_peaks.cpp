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

    // One sweep of seven paths: each row's (label, peak) and the point
    // that measures it.  The SPU and PPE paths are deterministic (no
    // SPE placement) and take one run.
    struct Row
    {
        const char *path;
        double peak;
    };
    std::vector<Row> rows;
    const core::RepeatSpec once{1, b.repeat.seed};
    core::Sweep sweep(b.repeat, b.pool);

    // SPU <-> LS, 16 B loads.
    {
        core::SpuLsConfig lc;
        lc.elemSize = 16;
        lc.totalBytes = b.bytesPerSpe;
        sweep.add(b.cfg, once, [lc](cell::CellSystem &s) {
            return core::runSpuLs(s, lc);
        });
        rows.push_back({"SPU <-> LS (16B load)", b.cfg.lsPeakGBps()});
    }
    // PPE -> L1, 8 B loads.
    {
        auto pc = core::ppeL1Config(1, 8, ppe::MemOp::Load);
        pc.totalBytes = b.bytesPerSpe;
        sweep.add(b.cfg, once, [pc](cell::CellSystem &s) {
            return core::runPpeStream(s, pc);
        });
        rows.push_back({"PPU <- L1 (8B load)",
                        16.0 * b.cfg.clock.cpuHz / 1e9});
    }
    // PPE -> memory, 16 B loads.
    {
        auto pc = core::ppeMemConfig(1, 16, ppe::MemOp::Load);
        pc.totalBytes = b.bytesPerSpe;
        sweep.add(b.cfg, once, [pc](cell::CellSystem &s) {
            return core::runPpeStream(s, pc);
        });
        rows.push_back({"PPU <- memory (16B load)", b.cfg.rampPeakGBps()});
    }
    // 1 SPE GET from memory.
    {
        core::SpeMemConfig mc;
        mc.numSpes = 1;
        mc.bytesPerSpe = b.bytesPerSpe;
        sweep.add(b.cfg, [mc](cell::CellSystem &s) {
            return core::runSpeMem(s, mc);
        });
        rows.push_back({"1 SPE GET <- memory", b.cfg.rampPeakGBps()});
    }
    // 4 SPEs GET from memory (both banks).
    {
        core::SpeMemConfig mc;
        mc.numSpes = 4;
        mc.bytesPerSpe = b.bytesPerSpe;
        sweep.add(b.cfg, [mc](cell::CellSystem &s) {
            return core::runSpeMem(s, mc);
        });
        rows.push_back({"4 SPEs GET <- memory (MIC+IOIF)",
                        b.cfg.rampPeakGBps() + 7.0});
    }
    // SPE pair GET+PUT.
    {
        core::SpeSpeConfig sc;
        sc.numSpes = 2;
        sc.elemBytes = 4096;
        sc.bytesPerStream = b.bytesPerSpe;
        sweep.add(b.cfg, [sc](cell::CellSystem &s) {
            return core::runSpeSpe(s, sc);
        });
        rows.push_back({"SPE pair GET+PUT (4KiB)", b.cfg.pairPeakGBps()});
    }
    // 8-SPE cycle.
    {
        core::SpeSpeConfig sc;
        sc.mode = core::SpeSpeMode::Cycle;
        sc.numSpes = 8;
        sc.elemBytes = 4096;
        sc.bytesPerStream = b.bytesPerSpe;
        sweep.add(b.cfg, [sc](cell::CellSystem &s) {
            return core::runSpeSpe(s, sc);
        });
        rows.push_back({"8-SPE cycle GET+PUT (4KiB)",
                        8 * b.cfg.rampPeakGBps()});
    }

    stats::Table table({"path", "peak GB/s", "sustained GB/s",
                        "efficiency"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        double meas = sweep.result(i).mean();
        table.addRow({rows[i].path, stats::Table::num(rows[i].peak, 1),
                      stats::Table::num(meas),
                      util::format("%.0f%%",
                                   100.0 * meas / rows[i].peak)});
    }

    b.emit(table);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(tab01_peaks, "Tab. 1",
                           "architectural peaks vs sustained bandwidth",
                           run)
